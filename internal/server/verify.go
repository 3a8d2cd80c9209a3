package server

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/pcs"
	"repro/internal/protocol"
	"repro/internal/verify"
	"repro/wave"
)

// UncertifiableError carries the failed certificate of a configuration that
// is well-formed but provably unsafe (a deadlock or livelock counterexample
// exists). The HTTP layer maps it to 422 with the certificate in the body,
// so a client sees the exact cycle it would have deadlocked on.
type UncertifiableError struct {
	Cert *verify.Certificate
}

// Error implements error.
func (e *UncertifiableError) Error() string {
	return "configuration failed certification: " + e.Cert.Failure()
}

// verdictCacheMax bounds the certificate cache; on overflow the whole map is
// dropped (the routing.BuildCDGCached pattern: re-proving is cheap, the
// cache exists so per-submit certification of the handful of prover inputs
// a client actually cycles through costs one map lookup). Entries are keyed
// by verify.Spec.Key, so jobs that differ only in seed, load or window share
// one entry.
const verdictCacheMax = 64

// verdictCache memoizes certificates by verify.Spec.Key.
type verdictCache struct {
	mu sync.Mutex
	m  map[string]*verify.Certificate
}

// certifyConfig proves the effective simulator configuration (plus
// staticFaults pre-run random channel faults, mirroring runSim's
// InjectFaults seed) and caches the verdict on the prover's inputs. An
// error means the configuration is malformed (bad topology, unknown
// routing, VCs below the function's minimum); an uncertified configuration
// comes back as a certificate with Certified == false.
func (s *Server) certifyConfig(cfg wave.Config, staticFaults int) (*verify.Certificate, error) {
	topo, err := cfg.Topology.Build()
	if err != nil {
		return nil, err
	}
	// The fault set the run will actually see: the static plan drawn with
	// runSim's seed (cfg.Seed+99) plus the schedule's permanent events. This
	// is the only way the seed reaches the verdict.
	var faults []pcs.Channel
	if staticFaults > 0 {
		plan, err := fault.RandomChannels(topo, cfg.NumSwitches, staticFaults, cfg.Seed+99)
		if err != nil {
			return nil, err
		}
		faults = append(faults, plan.Channels...)
	}
	perm, err := cfg.PermanentFaultChannels(topo)
	if err != nil {
		return nil, err
	}
	faults = append(faults, perm...)

	sp := verify.Spec{
		Topo:            topo,
		Routing:         cfg.Routing,
		NumVCs:          cfg.NumVCs,
		Protocol:        protocol.Kind(cfg.Protocol),
		NumSwitches:     cfg.NumSwitches,
		MaxMisroutes:    cfg.MaxMisroutes,
		ProbeRetryLimit: cfg.ProbeRetryLimit,
		RecoveryTimeout: cfg.RecoveryTimeout,
		Faults:          faults,
	}
	key := sp.Key()
	s.verdicts.mu.Lock()
	if cert, ok := s.verdicts.m[key]; ok {
		s.verdicts.mu.Unlock()
		s.metrics.verifyCacheHits.Add(1)
		return cert, nil
	}
	s.verdicts.mu.Unlock()

	cert, err := verify.Certify(sp)
	if err != nil {
		return nil, err
	}
	if cert.Certified {
		s.metrics.verifyCertified.Add(1)
	} else {
		s.metrics.verifyRejected.Add(1)
	}
	s.verdicts.mu.Lock()
	if s.verdicts.m == nil || len(s.verdicts.m) >= verdictCacheMax {
		s.verdicts.m = make(map[string]*verify.Certificate)
	}
	s.verdicts.m[key] = cert
	s.verdicts.mu.Unlock()
	return cert, nil
}

// certifySpec gates a submission on static certification.
func (s *Server) certifySpec(sp *Spec) error {
	cert, err := s.certifyConfig(sp.simConfig(), sp.Faults)
	if err != nil {
		return err
	}
	if !cert.Certified {
		return &UncertifiableError{Cert: cert}
	}
	return nil
}
