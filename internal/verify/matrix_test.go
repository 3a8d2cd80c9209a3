package verify

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/pcs"
	"repro/internal/protocol"
	"repro/internal/topology"
)

// TestExperimentMatrix certifies every (topology, routing function,
// protocol, VC count, switch count, misroute budget, retry limit, recovery)
// combination the shipped experiment suite (internal/experiments) actually
// runs — E1..E21 all build on DefaultConfig (8x8 torus, duato w=3, k=2,
// m=2, retry limit 0) with the overrides enumerated here. A failure names
// the configuration, so a future routing or protocol change that silently
// breaks a theorem is caught in CI before any experiment reproduces garbage.
func TestExperimentMatrix(t *testing.T) {
	specs := experimentMatrix(t)
	for _, c := range specs {
		name := fmt.Sprintf("%s: %s/%s w=%d %s k=%d m=%d retry=%d faults=%d",
			c.exp, c.sp.Topo.Name(), c.sp.Routing, c.sp.NumVCs, c.sp.Protocol,
			c.sp.NumSwitches, c.sp.MaxMisroutes, c.sp.ProbeRetryLimit, len(c.sp.Faults))
		cert, err := Certify(c.sp)
		if err != nil {
			t.Errorf("%s: spec rejected: %v", name, err)
			continue
		}
		if !cert.Certified {
			t.Errorf("%s: NOT certified: %s", name, cert.Failure())
		}
		// Recovery configs must say so; everything else must rest on a
		// static graph proof.
		if c.sp.RecoveryTimeout > 0 && cert.Deadlock.Method != "recovery" {
			t.Errorf("%s: expected recovery certification, got %q", name, cert.Deadlock.Method)
		}
		if c.sp.RecoveryTimeout == 0 && cert.Deadlock.Method == "recovery" {
			t.Errorf("%s: static config certified only via recovery", name)
		}
	}
	t.Logf("certified %d experiment configurations", len(specs))
}

// matrixSpec is one experiment-matrix configuration, labelled with the
// experiment that runs it.
type matrixSpec struct {
	exp string
	sp  Spec
}

// experimentMatrix lists every configuration TestExperimentMatrix
// certifies, E8's fault-plan residuals last.
func experimentMatrix(t *testing.T) []matrixSpec {
	t.Helper()
	torus88 := topology.MustCube([]int{8, 8}, true)
	torus44 := topology.MustCube([]int{4, 4}, true) // quick-mode radix
	mesh88 := topology.MustCube([]int{8, 8}, false)
	torus3d := topology.MustCube([]int{4, 4, 4}, true) // E12 3-D cube
	hyper6, err := topology.NewHypercube(6)            // E12 64-node hypercube
	if err != nil {
		t.Fatal(err)
	}

	type combo struct {
		exp      string
		topo     topology.Topology
		routing  string
		vcs      int
		kind     protocol.Kind
		switches int
		m, retry int
		recovery int64
	}
	var matrix []combo

	// The baseline every experiment starts from, across all four protocols
	// (E2 protocol comparison, E7 stress, E19 buffers, ...).
	for _, k := range []protocol.Kind{protocol.Wormhole, protocol.CLRP, protocol.CARP, protocol.PCS} {
		matrix = append(matrix,
			combo{"baseline", torus88, "duato", 3, k, 2, 2, 0, 0},
			combo{"baseline-quick", torus44, "duato", 3, k, 2, 2, 0, 0},
		)
	}
	// E1 and the headline replication: one full-width wave channel, no
	// misrouting.
	for _, k := range []protocol.Kind{protocol.Wormhole, protocol.PCS, protocol.CLRP} {
		matrix = append(matrix, combo{"e1", torus88, "duato", 3, k, 1, 0, 0, 0})
	}
	// E5: misroute-budget sweep over per-message circuits on one switch.
	for m := 0; m <= 4; m++ {
		matrix = append(matrix, combo{"e5", torus88, "duato", 3, protocol.PCS, 1, m, 0, 0})
	}
	// E6: switch-count sweep (k=1 also covers E10/E11, k=3 covers E18).
	for _, k := range []int{1, 2, 3, 4} {
		matrix = append(matrix, combo{"e6", torus88, "duato", 3, protocol.CLRP, k, 2, 0, 0})
	}
	// E8: MB-3 probes; the transient rows arm three setup retries. The
	// static rows are also re-proven with their fault plans below.
	e8Static := combo{"e8-static", torus88, "duato", 3, protocol.CLRP, 2, 3, 0, 0}
	matrix = append(matrix, e8Static,
		combo{"e8-transient", torus88, "duato", 3, protocol.CLRP, 2, 3, 3, 0})
	// E12: topology comparison, wormhole and CLRP on each family.
	for _, k := range []protocol.Kind{protocol.Wormhole, protocol.CLRP} {
		matrix = append(matrix,
			combo{"e12-torus", torus88, "duato", 3, k, 2, 2, 0, 0},
			combo{"e12-mesh", mesh88, "duato", 2, k, 2, 2, 0, 0},
			combo{"e12-cube3", torus3d, "duato", 3, k, 2, 2, 0, 0},
			combo{"e12-hypercube", hyper6, "duato", 2, k, 2, 2, 0, 0},
		)
	}
	// E15: router-complexity study (wormhole only).
	matrix = append(matrix,
		combo{"e15", torus88, "dor", 2, protocol.Wormhole, 2, 2, 0, 0},
		combo{"e15", torus88, "duato", 3, protocol.Wormhole, 2, 2, 0, 0},
	)
	// E16: avoidance vs recovery — the only shipped use of the deliberately
	// cyclic function, certified solely through the recovery mechanism.
	matrix = append(matrix,
		combo{"e16-avoidance", torus88, "dor", 2, protocol.Wormhole, 2, 2, 0, 0},
		combo{"e16-recovery", torus88, "dor-nodateline", 1, protocol.Wormhole, 2, 2, 0, 64},
		combo{"e16-recovery", torus88, "dor-nodateline", 1, protocol.Wormhole, 2, 2, 0, 256},
	)
	// E21: routing-family comparison on a mesh (wormhole only).
	for _, fn := range []string{"dor", "westfirst", "negativefirst", "duato"} {
		matrix = append(matrix, combo{"e21", mesh88, fn, 2, protocol.Wormhole, 2, 2, 0, 0})
	}
	// Non-cube families: fat-tree up*/down* and full-mesh VC-free routing,
	// across every protocol. Both certify with a single VC — up*/down* by
	// acyclic up-then-down ordering, VC-free by the Cano-style label
	// restriction on 2-hop paths.
	fattree, err := topology.NewFatTree(4, 2) // 16 hosts, 12 switches
	if err != nil {
		t.Fatal(err)
	}
	fattree2 := topology.MustFatTree(2, 3) // 8 hosts, deeper tree
	fullmesh, err := topology.NewFullMesh(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []protocol.Kind{protocol.Wormhole, protocol.CLRP, protocol.CARP, protocol.PCS} {
		matrix = append(matrix,
			combo{"fattree", fattree, "updown", 1, k, 2, 2, 3, 0},
			combo{"fattree", fattree, "updown", 2, k, 2, 2, 3, 0},
			combo{"fattree-deep", fattree2, "updown", 1, k, 2, 2, 3, 0},
			combo{"fullmesh", fullmesh, "vcfree", 1, k, 2, 2, 3, 0},
			combo{"fullmesh", fullmesh, "vcfree", 2, k, 2, 2, 3, 0},
		)
	}
	// The unlabeled full-mesh variant is cyclic by design: recovery-only,
	// mirroring e16's dor-nodateline role.
	matrix = append(matrix,
		combo{"fullmesh-recovery", fullmesh, "vcfree-nolabel", 1, protocol.Wormhole, 2, 2, 3, 256},
	)

	var out []matrixSpec
	add := func(c combo, faults []pcs.Channel) {
		out = append(out, matrixSpec{c.exp, Spec{
			Topo: c.topo, Routing: c.routing, NumVCs: c.vcs, Protocol: c.kind,
			NumSwitches: c.switches, MaxMisroutes: c.m, ProbeRetryLimit: c.retry,
			RecoveryTimeout: c.recovery, Faults: faults,
		}})
	}
	for _, c := range matrix {
		add(c, nil)
	}
	// E8's static rows remove wave channels before the run: re-prove the
	// residual configuration under the plans E8 draws (row i of its sweep
	// is seeded 1+17i at Defaults, row 0 being fault-free).
	for i, n := range []int{8, 16, 32, 64, 128} {
		plan, err := fault.RandomChannels(e8Static.topo, e8Static.switches, n, 1+uint64(i+1)*17)
		if err != nil {
			t.Fatal(err)
		}
		add(e8Static, plan.Channels)
	}
	return out
}
