package server

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/pcs"
	"repro/internal/protocol"
	"repro/internal/resultcache"
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
// cache exists so per-submit certification of the handful of configurations
// a client actually cycles through costs one map lookup).
const verdictCacheMax = 64

// verdictCache memoizes certificates by canonical effective configuration.
type verdictCache struct {
	mu sync.Mutex
	m  map[string]*verify.Certificate
}

// certifyConfig proves the effective simulator configuration (plus
// staticFaults pre-run random channel faults, mirroring runSim's
// InjectFaults seed) and caches the verdict. An error means the
// configuration is malformed (bad topology, unknown routing, VCs below the
// function's minimum); an uncertified configuration comes back as a
// certificate with Certified == false.
func (s *Server) certifyConfig(cfg wave.Config, staticFaults int) (*verify.Certificate, error) {
	// Same canonical addressing as the result cache (resultcache.Key):
	// struct-order-stable JSON hashed to a fixed-width digest, so any two
	// spellings of the same effective configuration share one verdict.
	key, err := resultcache.Key(struct {
		Cfg    wave.Config
		Faults int
	}{cfg, staticFaults})
	if err != nil {
		return nil, fmt.Errorf("canonicalize config: %w", err)
	}
	s.verdicts.mu.Lock()
	if cert, ok := s.verdicts.m[key]; ok {
		s.verdicts.mu.Unlock()
		s.metrics.verifyCacheHits.Add(1)
		return cert, nil
	}
	s.verdicts.mu.Unlock()

	topo, err := cfg.Topology.Build()
	if err != nil {
		return nil, err
	}
	// The fault set the run will actually see: the static plan drawn with
	// runSim's seed (cfg.Seed+99) plus the schedule's permanent events.
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

	cert, err := verify.Certify(verify.Spec{
		Topo:            topo,
		Routing:         cfg.Routing,
		NumVCs:          cfg.NumVCs,
		Protocol:        protocol.Kind(cfg.Protocol),
		NumSwitches:     cfg.NumSwitches,
		MaxMisroutes:    cfg.MaxMisroutes,
		ProbeRetryLimit: cfg.ProbeRetryLimit,
		RecoveryTimeout: cfg.RecoveryTimeout,
		Faults:          faults,
	})
	if err != nil {
		return nil, err
	}
	if cert.Certified {
		s.metrics.verifyCertified.Add(1)
	} else {
		s.metrics.verifyRejected.Add(1)
	}
	s.verdicts.mu.Lock()
	if s.verdicts.m == nil {
		s.verdicts.m = make(map[string]*verify.Certificate)
	}
	if len(s.verdicts.m) >= verdictCacheMax {
		s.verdicts.m = make(map[string]*verify.Certificate)
	}
	s.verdicts.m[key] = cert
	s.verdicts.mu.Unlock()
	return cert, nil
}

// certifySpec gates a load/closed submission on static certification.
// Experiment jobs are not gated here: they build their own configurations
// internally, and the shipped set is certified wholesale by the verify
// package's experiment-matrix test.
func (s *Server) certifySpec(sp *Spec) error {
	if sp.Kind != KindLoad && sp.Kind != KindClosed {
		return nil
	}
	cert, err := s.certifyConfig(sp.simConfig(), sp.Faults)
	if err != nil {
		return err
	}
	if !cert.Certified {
		return &UncertifiableError{Cert: cert}
	}
	return nil
}
