package verify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/pcs"
	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/topology"
)

func baseSpec(topo topology.Topology, routingName string, vcs int, kind protocol.Kind) Spec {
	return Spec{
		Topo: topo, Routing: routingName, NumVCs: vcs, Protocol: kind,
		NumSwitches: 2, MaxMisroutes: 2,
	}
}

func mustCertify(t *testing.T, sp Spec) *Certificate {
	t.Helper()
	cert, err := Certify(sp)
	if err != nil {
		t.Fatalf("Certify(%s %s w=%d %s): %v", sp.Topo.Name(), sp.Routing, sp.NumVCs, sp.Protocol, err)
	}
	return cert
}

// TestProofMethods pins which argument proves each shipped function:
// deterministic functions directly (Dally-Seitz), adaptive ones through
// their escape (Duato), the deliberately unsafe one only via recovery.
func TestProofMethods(t *testing.T) {
	mesh := topology.MustCube([]int{4, 4}, false)
	torus := topology.MustCube([]int{4, 4}, true)
	cases := []struct {
		topo    topology.Topology
		routing string
		vcs     int
		method  string
	}{
		{mesh, "dor", 1, "acyclic-cdg"},
		{torus, "dor", 2, "acyclic-cdg"},
		{mesh, "westfirst", 1, "acyclic-cdg"},
		{mesh, "negativefirst", 1, "acyclic-cdg"},
		{mesh, "duato", 2, "escape"},
		{torus, "duato", 3, "escape"},
	}
	for _, c := range cases {
		cert := mustCertify(t, baseSpec(c.topo, c.routing, c.vcs, protocol.CLRP))
		if !cert.Certified {
			t.Fatalf("%s %s w=%d: not certified: %s", c.topo.Name(), c.routing, c.vcs, cert.Failure())
		}
		if cert.Deadlock.Method != c.method {
			t.Errorf("%s %s w=%d: deadlock method %q, want %q",
				c.topo.Name(), c.routing, c.vcs, cert.Deadlock.Method, c.method)
		}
		if !cert.Livelock.OK || cert.Livelock.Method != "monotone-progress" {
			t.Errorf("%s %s: livelock %+v, want monotone-progress", c.topo.Name(), c.routing, cert.Livelock)
		}
		if !cert.WaitFor.OK {
			t.Errorf("%s %s: wait-for proof failed: %+v", c.topo.Name(), c.routing, cert.WaitFor)
		}
	}
}

// TestNegativeProofCycleIsReal: the deliberately cyclic configuration
// (unrestricted DOR, 1 VC, torus) must be rejected, and the reported
// counterexample must be a genuine minimal cycle of the channel dependency
// graph — every consecutive pair an actual edge, endpoints equal.
func TestNegativeProofCycleIsReal(t *testing.T) {
	torus := topology.MustCube([]int{4, 4}, true)
	cert := mustCertify(t, baseSpec(torus, "dor-nodateline", 1, protocol.Wormhole))
	if cert.Certified {
		t.Fatal("cyclic configuration certified")
	}
	if cert.Deadlock.OK || cert.Deadlock.Method != "cyclic" {
		t.Fatalf("deadlock proof = %+v, want cyclic failure", cert.Deadlock)
	}
	if len(cert.Deadlock.Counterexample) < 3 {
		t.Fatalf("counterexample too short: %v", cert.Deadlock.Counterexample)
	}

	// Re-derive the cycle the prover reports and validate its edges.
	fn, err := routing.New("dor-nodateline", torus, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := routing.BuildCDGCached(torus, fn).Escape().Graph
	cyc := g.ShortestCycle()
	if cyc == nil {
		t.Fatal("ShortestCycle found nothing on a cyclic graph")
	}
	if cyc[0] != cyc[len(cyc)-1] {
		t.Fatalf("cycle endpoints differ: %v", cyc)
	}
	for i := 0; i+1 < len(cyc); i++ {
		if !g.HasEdge(cyc[i], cyc[i+1]) {
			t.Fatalf("reported cycle uses non-edge %d->%d (cycle %v)", cyc[i], cyc[i+1], cyc)
		}
	}
	// The certificate renders exactly this cycle.
	if len(cert.Deadlock.Counterexample) != len(cyc) {
		t.Fatalf("certificate cycle length %d, ShortestCycle %d",
			len(cert.Deadlock.Counterexample), len(cyc))
	}
	for i, v := range cyc {
		if cert.Deadlock.Counterexample[i] != g.VertexName(v, torus) {
			t.Fatalf("counterexample[%d] = %q, want %q",
				i, cert.Deadlock.Counterexample[i], g.VertexName(v, torus))
		}
	}
}

// TestShortestCycleIsMinimal: on a 1-D 4-ring with unrestricted DOR and one
// VC the smallest dependency cycle is the ring itself — 4 channels.
func TestShortestCycleIsMinimal(t *testing.T) {
	ring := topology.MustCube([]int{4}, true)
	fn, err := routing.New("dor-nodateline", ring, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := routing.BuildCDG(ring, fn)
	cyc := g.ShortestCycle()
	if cyc == nil {
		t.Fatal("no cycle on unrestricted ring DOR")
	}
	if len(cyc) != 5 { // 4 vertices, first repeated
		t.Fatalf("shortest ring cycle has %d vertices, want 5 (incl. repeat): %v", len(cyc), cyc)
	}
	for i := 0; i+1 < len(cyc); i++ {
		if !g.HasEdge(cyc[i], cyc[i+1]) {
			t.Fatalf("minimal cycle uses non-edge %d->%d", cyc[i], cyc[i+1])
		}
	}
}

// TestRecoveryCertification: the same cyclic function certifies when (and
// only when) abort-and-retry recovery is armed — the E16 configuration.
func TestRecoveryCertification(t *testing.T) {
	torus := topology.MustCube([]int{4, 4}, true)
	sp := baseSpec(torus, "dor-nodateline", 1, protocol.Wormhole)
	sp.RecoveryTimeout = 64
	cert := mustCertify(t, sp)
	if !cert.Certified {
		t.Fatalf("recovery configuration not certified: %s", cert.Failure())
	}
	if cert.Deadlock.Method != "recovery" {
		t.Fatalf("deadlock method %q, want recovery", cert.Deadlock.Method)
	}
	if cert.WaitFor.Method != "recovery" {
		t.Fatalf("wait-for method %q, want recovery", cert.WaitFor.Method)
	}
}

// meshHop appends the hop along dimension d of a 2-D mesh toward dst, on
// VC vc, or nothing when dst is level with here along d.
func meshHop(topo topology.Geometry, here, dst topology.Node, d, vc int, out []routing.Candidate) []routing.Candidate {
	o := topo.Links().Offset(here, dst, d)
	if o == 0 {
		return out
	}
	dir := topology.Plus
	if o < 0 {
		dir = topology.Minus
	}
	link, _ := topo.OutSlot(here, 2*d+int(dir))
	return append(out, routing.Candidate{Link: link, VC: vc})
}

// xyEscape is XY routing on VC 0 of a 2-D mesh. With blind set it reads
// its input link and offers nothing to a header that arrived on a Y link
// while an X offset remains — a state XY itself never leads to.
type xyEscape struct {
	topo  topology.Geometry
	blind bool
}

func (f *xyEscape) Name() string         { return fmt.Sprintf("xy-escape-test-%v", f.blind) }
func (f *xyEscape) NumVCs() int          { return 2 }
func (f *xyEscape) Escape() routing.Func { return f }
func (f *xyEscape) Candidates(here, dst topology.Node, inLink topology.LinkID, _ int, out []routing.Candidate) []routing.Candidate {
	if l, ok := f.topo.LinkByID(inLink); f.blind && ok && l.Dim == 1 && f.topo.Links().Offset(here, dst, 0) != 0 {
		return out
	}
	if f.topo.Links().Offset(here, dst, 0) != 0 {
		return meshHop(f.topo, here, dst, 0, 0, out)
	}
	return meshHop(f.topo, here, dst, 1, 0, out)
}

// adaptiveXY is minimal adaptive routing on VC 1 of a 2-D mesh (every
// profitable direction) with esc's candidates after them. With noReturn
// set it offers esc only to headers not holding VC 1, so a header that
// took an adaptive hop never gets back to the escape.
type adaptiveXY struct {
	topo     topology.Geometry
	esc      *xyEscape
	noReturn bool
}

func (f *adaptiveXY) Name() string {
	return fmt.Sprintf("adaptive-xy-test-%v-%v", f.esc.blind, f.noReturn)
}
func (f *adaptiveXY) NumVCs() int          { return 2 }
func (f *adaptiveXY) Escape() routing.Func { return f.esc }
func (f *adaptiveXY) Candidates(here, dst topology.Node, inLink topology.LinkID, inVC int, out []routing.Candidate) []routing.Candidate {
	out = meshHop(f.topo, here, dst, 0, 1, out)
	out = meshHop(f.topo, here, dst, 1, 1, out)
	if f.noReturn && inLink != topology.Invalid && inVC == 1 {
		return out
	}
	return f.esc.Candidates(here, dst, inLink, inVC, out)
}

// escapeRejection proves fn on mesh and returns the deadlock proof after
// checking what every escape rejection shares: the full graph is cyclic,
// the escape's own graph is acyclic, and the verdict is a failed escape
// with a single counterexample state.
func escapeRejection(t *testing.T, mesh topology.Topology, fn routing.Func) deadlockProof {
	t.Helper()
	g := routing.BuildCDG(mesh, fn)
	if g.FindCycle() == nil {
		t.Fatal("test premise broken: the adaptive graph should be cyclic")
	}
	if routing.BuildCDG(mesh, fn.Escape()).FindCycle() != nil {
		t.Fatal("test premise broken: XY on its own states should be acyclic")
	}
	dl := proveDeadlock(Spec{Topo: mesh, NumVCs: 2}, fn, g)
	if dl.OK || dl.Method != "escape" || len(dl.Counterexample) != 1 {
		t.Fatalf("proof = %+v, want a failed escape with one counterexample state", dl.Proof)
	}
	return dl
}

// TestEscapeStuckAtAdaptiveState: an escape that is connected on its own
// states but offers nothing at a state only the adaptive channels lead to
// (a header on a Y link with X offset left) is refused, and the
// counterexample names that state.
func TestEscapeStuckAtAdaptiveState(t *testing.T) {
	mesh := topology.MustCube([]int{4, 4}, false)
	fn := &adaptiveXY{topo: mesh, esc: &xyEscape{topo: mesh, blind: true}}
	dl := escapeRejection(t, mesh, fn)
	if !strings.Contains(dl.Detail, "not connected") {
		t.Fatalf("detail %q", dl.Detail)
	}
	var here, dst, from, to int
	var dir string
	if _, err := fmt.Sscanf(dl.Counterexample[0], "escape offers nothing at node %d toward %d holding link %d->%d dim1%s vc1",
		&here, &dst, &from, &to, &dir); err != nil {
		t.Fatalf("counterexample %q does not name a VC-1 Y-link state: %v", dl.Counterexample[0], err)
	}
	if to != here || mesh.Links().Offset(topology.Node(here), topology.Node(dst), 0) == 0 {
		t.Fatalf("counterexample %q: no X offset left at node %d toward %d", dl.Counterexample[0], here, dst)
	}
}

// TestEscapeNotSubfunction: an escape that offers a channel the function
// itself does not offer at some reachable state is no subfunction, and is
// refused with that state as the counterexample.
func TestEscapeNotSubfunction(t *testing.T) {
	mesh := topology.MustCube([]int{4, 4}, false)
	fn := &adaptiveXY{topo: mesh, esc: &xyEscape{topo: mesh}, noReturn: true}
	dl := escapeRejection(t, mesh, fn)
	if !strings.Contains(dl.Detail, "not a subfunction of "+fn.Name()) {
		t.Fatalf("detail %q", dl.Detail)
	}
	var from, to, here, dst, heldFrom, heldTo, d, heldD int
	var dir, heldDir string
	ce := dl.Counterexample[0]
	if _, err := fmt.Sscanf(ce, "escape offers link %d->%d dim%d%s vc0 at node %d toward %d holding link %d->%d dim%d%s vc1; "+fn.Name()+" does not",
		&from, &to, &d, &dir, &here, &dst, &heldFrom, &heldTo, &heldD, &heldDir); err != nil {
		t.Fatalf("counterexample %q does not name the VC-0 escape offered to a header holding VC 1: %v", ce, err)
	}
	if from != here || heldTo != here {
		t.Fatalf("counterexample %q: channels do not meet at node %d", ce, here)
	}
}

// pingpong always offers both ring directions — connected but with
// non-minimal hops forming routing-state cycles: a livelock counterexample.
type pingpong struct{ topo topology.Geometry }

func (f *pingpong) Name() string         { return "pingpong-test" }
func (f *pingpong) NumVCs() int          { return 1 }
func (f *pingpong) Escape() routing.Func { return f }

func (f *pingpong) Candidates(here, dst topology.Node, _ topology.LinkID, _ int, out []routing.Candidate) []routing.Candidate {
	for _, dir := range []topology.Dir{topology.Plus, topology.Minus} {
		if link, ok := f.topo.OutSlot(here, int(dir)); ok {
			out = append(out, routing.Candidate{Link: link, VC: 0})
		}
	}
	return out
}

// TestLivelockCounterexample: the delivery proof rejects a function whose
// candidate walks can oscillate forever, with a rendered state cycle.
func TestLivelockCounterexample(t *testing.T) {
	ring := topology.MustCube([]int{4}, true)
	fn := &pingpong{topo: ring}
	g := routing.BuildCDG(ring, fn)
	d := proveDelivery(ring, fn, g)
	if d.ok {
		t.Fatal("pingpong accepted")
	}
	if d.Stuck != "" {
		t.Fatalf("rejected as stuck (%s), want state cycle", d.Stuck)
	}
	if len(d.cycle) < 3 {
		t.Fatalf("no usable state cycle: %v", d.cycle)
	}
	p := proveLivelock(Spec{Topo: ring, NumVCs: 1}, protocol.Wormhole, fn, g)
	if p.OK {
		t.Fatal("livelock proof passed for pingpong")
	}
	if len(p.Counterexample) == 0 {
		t.Fatal("livelock failure carries no counterexample")
	}
}

// TestMonotoneShippedFunctions: every shipped function is minimal on its
// natural topologies — the strongest livelock argument.
func TestMonotoneShippedFunctions(t *testing.T) {
	mesh := topology.MustCube([]int{3, 3, 3}, false)
	torus := topology.MustCube([]int{4, 4}, true)
	cases := []struct {
		topo topology.Topology
		name string
		vcs  int
	}{
		{mesh, "dor", 1}, {torus, "dor", 2},
		{mesh, "duato", 2}, {torus, "duato", 3},
		{mesh, "negativefirst", 1},
		{torus, "dor-nodateline", 1},
	}
	for _, c := range cases {
		fn, err := routing.New(c.name, c.topo, c.vcs)
		if err != nil {
			t.Fatal(err)
		}
		d := proveDelivery(c.topo, fn, routing.BuildCDG(c.topo, fn))
		if !d.ok || !d.Monotone {
			t.Errorf("%s on %s: delivery = %+v, want monotone", c.name, c.topo.Name(), d)
		}
		if d.bound != c.topo.Diameter() {
			t.Errorf("%s: bound %d, want diameter %d", c.name, d.bound, c.topo.Diameter())
		}
	}
}

// TestFaultResidual: a node-isolating permanent fault set still certifies
// (wormhole fallback), the residual proof reports the isolated node, and
// nonexistent fault channels are spec errors.
func TestFaultResidual(t *testing.T) {
	torus := topology.MustCube([]int{4, 4}, true)
	sp := baseSpec(torus, "duato", 3, protocol.CLRP)
	sp.Faults = fault.NodeIsolating(torus, sp.NumSwitches, 5).Channels
	cert := mustCertify(t, sp)
	if !cert.Certified {
		t.Fatalf("faulted config not certified: %s", cert.Failure())
	}
	if cert.Residual == nil || !cert.Residual.OK {
		t.Fatalf("residual proof missing or failed: %+v", cert.Residual)
	}
	if !strings.Contains(cert.Residual.Detail, "[5]") {
		t.Fatalf("residual detail does not report isolated node 5: %q", cert.Residual.Detail)
	}

	// Unfaulted spec has no residual section.
	clean := mustCertify(t, baseSpec(torus, "duato", 3, protocol.CLRP))
	if clean.Residual != nil {
		t.Fatal("unfaulted certificate carries a residual proof")
	}

	// A fault naming a missing mesh-boundary link is a spec error.
	mesh := topology.MustCube([]int{4, 4}, false)
	bad := baseSpec(mesh, "duato", 2, protocol.CLRP)
	edge, _ := mesh.OutSlot(0, int(topology.Minus)) // boundary slot: no link
	bad.Faults = []pcs.Channel{{Link: edge, Switch: 0}}
	if _, err := Certify(bad); err == nil {
		t.Fatal("missing-link fault accepted")
	}
	bad.Faults = []pcs.Channel{{Link: 1, Switch: 9}}
	if _, err := Certify(bad); err == nil {
		t.Fatal("out-of-range switch fault accepted")
	}
}

// TestObligations: parameter-dependent obligations gate certification.
func TestObligations(t *testing.T) {
	torus := topology.MustCube([]int{4, 4}, true)
	sp := baseSpec(torus, "duato", 3, protocol.CLRP)
	sp.MaxMisroutes = flit.MaxMisroutes + 1
	cert := mustCertify(t, sp)
	if cert.Certified {
		t.Fatal("unbounded misroutes certified")
	}
	if !strings.Contains(cert.Failure(), "mb-m-bound") {
		t.Fatalf("failure %q does not name the violated obligation", cert.Failure())
	}

	sp = baseSpec(torus, "duato", 3, protocol.CARP)
	sp.NumSwitches = 0
	cert = mustCertify(t, sp)
	if cert.Certified {
		t.Fatal("k=0 circuit protocol certified")
	}
}

// TestSpecErrors: malformed specs are errors, not failed certificates.
func TestSpecErrors(t *testing.T) {
	torus := topology.MustCube([]int{4, 4}, true)
	if _, err := Certify(baseSpec(torus, "nope", 1, protocol.CLRP)); err == nil {
		t.Fatal("unknown routing accepted")
	}
	if _, err := Certify(baseSpec(torus, "duato", 2, protocol.CLRP)); err == nil {
		t.Fatal("duato with 2 VCs on a torus accepted")
	}
	if _, err := Certify(baseSpec(torus, "dor", 2, "bogus")); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := Certify(Spec{Routing: "dor", NumVCs: 2, Protocol: protocol.CLRP}); err == nil {
		t.Fatal("nil topology accepted")
	}
}

// TestWaitForStructure: the extended graph proof reports the protocol
// strata for circuit protocols and collapses to the substrate for plain
// wormhole.
func TestWaitForStructure(t *testing.T) {
	torus := topology.MustCube([]int{4, 4}, true)
	clrp := mustCertify(t, baseSpec(torus, "duato", 3, protocol.CLRP))
	if !strings.Contains(clrp.WaitFor.Detail, "wave") {
		t.Fatalf("CLRP wait-for detail lacks wave stratum: %q", clrp.WaitFor.Detail)
	}
	wh := mustCertify(t, baseSpec(torus, "duato", 3, protocol.Wormhole))
	if !strings.Contains(wh.WaitFor.Detail, "wormhole-only") {
		t.Fatalf("wormhole wait-for detail = %q", wh.WaitFor.Detail)
	}
}

// TestHypercubeCertification: hypercubes (the E12 topology family) certify
// with every function that supports them.
func TestHypercubeCertification(t *testing.T) {
	hc, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		routing string
		vcs     int
	}{{"dor", 1}, {"duato", 2}, {"negativefirst", 1}} {
		cert := mustCertify(t, baseSpec(hc, c.routing, c.vcs, protocol.CLRP))
		if !cert.Certified {
			t.Errorf("hypercube %s w=%d: %s", c.routing, c.vcs, cert.Failure())
		}
	}
}

// TestSpecKeyCoversEveryField: perturbing any one exported Spec field
// changes Key, and Key is stable otherwise. A field added to Spec without
// being keyed fails here, and so does a field of a kind this test cannot
// perturb yet.
func TestSpecKeyCoversEveryField(t *testing.T) {
	base := baseSpec(topology.MustCube([]int{4, 4}, true), "duato", 3, protocol.CLRP)
	base.Faults = []pcs.Channel{{Link: 3, Switch: 1}, {Link: 5, Switch: 0}}
	key := base.Key()
	if again := base.Key(); again != key {
		t.Fatalf("Key not stable: %s vs %s", key, again)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		sp := base
		sp.Faults = slices.Clone(base.Faults)
		v := reflect.ValueOf(&sp).Elem().Field(i)
		switch v.Kind() {
		case reflect.Interface:
			v.Set(reflect.ValueOf(topology.MustCube([]int{4, 6}, true)))
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("Spec.%s: no perturbation for kind %s; key the field and extend this test", f.Name, v.Kind())
		}
		if sp.Key() == key {
			t.Errorf("Spec.%s changed but Key did not", f.Name)
		}
	}

	// Faults are keyed in the order given.
	swapped := base
	swapped.Faults = []pcs.Channel{base.Faults[1], base.Faults[0]}
	if swapped.Key() == key {
		t.Error("reordered faults share a key")
	}
}

// TestCertifyConcurrent: concurrent certifications, the way concurrent waved
// submissions run them, share the process-wide CDG cache and the delivery
// facts its graphs hold, and agree byte for byte. CI runs it under -race;
// the shapes are used by no other test, so the graphs are built while the
// workers race for them.
func TestCertifyConcurrent(t *testing.T) {
	specs := []Spec{
		baseSpec(topology.MustCube([]int{6, 5}, true), "duato", 3, protocol.CLRP),
		baseSpec(topology.MustCube([]int{5, 6}, false), "westfirst", 1, protocol.Wormhole),
		baseSpec(topology.MustCube([]int{5, 6}, false), "duato", 2, protocol.PCS),
	}
	got := make([][][]byte, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range specs {
				cert, err := Certify(specs[(i+w)%len(specs)])
				if err != nil {
					t.Error(err)
					return
				}
				b, err := json.Marshal(cert)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], b)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, b := range got[w] {
			if want := got[0][(i+w)%len(specs)]; !bytes.Equal(b, want) {
				t.Errorf("worker %d spec %d: certificate %s, worker 0 %s", w, (i+w)%len(specs), b, want)
			}
		}
	}
}

// BenchmarkCertify times one certification of the default 8x8 torus under
// CLRP (the CDGs come from routing's build cache after the first
// iteration).
func BenchmarkCertify(b *testing.B) {
	sp := baseSpec(topology.MustCube([]int{8, 8}, true), "duato", 3, protocol.CLRP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Certify(sp); err != nil {
			b.Fatal(err)
		}
	}
}
