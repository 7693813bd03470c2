package tornado_test

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"tornado"
)

// TestPaperPipeline exercises the public API end-to-end the way the paper
// does: generate → screen → adjust → certify → profile → reliability.
func TestPaperPipeline(t *testing.T) {
	g, st, err := tornado.Generate(tornado.DefaultParams(), 2006)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total != 96 || g.Data != 48 {
		t.Fatalf("graph shape: %v", g)
	}
	t.Logf("generation: %+v, avg data degree %.2f", st, g.AvgDataDegree())

	if defects := tornado.ScanDefects(g, 3); len(defects) != 0 {
		t.Fatalf("screened graph has defects: %v", defects)
	}

	// Adjust up to k=3 cheaply (the full k=4 clearing runs in the bench
	// harness and cmd/experiments).
	improved, reports, err := tornado.Improve(g, 3, tornado.AdjustOptions{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("adjustment: %d cardinalities cleared", len(reports))

	wc, err := tornado.WorstCase(improved, tornado.WorstCaseOptions{MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if wc.Found {
		t.Errorf("first failure %d <= 3 after Improve(3)", wc.FirstFailure)
	}

	prof, err := tornado.Profile(improved, tornado.ProfileOptions{
		Trials: 2000, MaxK: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	avg := prof.AvgNodesToReconstruct()
	if avg < 48 || avg > 96 {
		t.Errorf("average to reconstruct = %.2f, outside [48,96]", avg)
	}
	pfail := tornado.SystemFailure(96, 0.01, prof.FailFraction)
	mirror := tornado.SystemFailure(96, 0.01, func(k int) float64 { return tornado.MirroredFailGivenK(48, k) })
	t.Logf("P(fail): tornado %.3g vs mirrored %.3g", pfail, mirror)
	if pfail >= mirror {
		t.Errorf("tornado P(fail) %.3g should beat mirroring %.3g", pfail, mirror)
	}
}

func TestPublicCodecRoundTrip(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tornado.NewCodec(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("tornado"), 100)
	blocks, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	blocks[3] = nil
	blocks[64] = nil
	got, err := c.Decode(blocks, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("round trip mismatch")
	}
}

func TestPublicGraphMLRoundTrip(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.graphml")
	if err := tornado.SaveGraphML(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := tornado.LoadGraphML(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total != g.Total || back.EdgeCount() != g.EdgeCount() {
		t.Error("GraphML round trip changed the graph")
	}
	var dot bytes.Buffer
	if err := tornado.WriteDOT(&dot, back, []int{0}); err != nil {
		t.Fatal(err)
	}
	if dot.Len() == 0 {
		t.Error("empty DOT output")
	}
}

func TestPublicArchiveFlow(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	store, err := tornado.NewArchive(g, tornado.NewDevices(g.Total), tornado.ArchiveConfig{
		BlockSize: 32, FirstFailure: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 500)
	if err := store.Put("doc", data); err != nil {
		t.Fatal(err)
	}
	store.Devices()[10].Fail()
	store.Devices()[60].Fail()
	got, stats, err := store.Get("doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("archive round trip mismatch")
	}
	t.Logf("get after 2 failures: %+v", stats)

	store.Devices()[10].Replace()
	store.Devices()[60].Replace()
	rep, err := store.Scrub(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired == 0 {
		t.Error("scrub repaired nothing after replacement")
	}
}

func TestPublicFederation(t *testing.T) {
	gA := tornado.MirroredGraph(4)
	gB := tornado.MirroredGraph(4)
	sys, err := tornado.NewFederation(gA, gB)
	if err != nil {
		t.Fatal(err)
	}
	if sys.TotalDevices() != 16 {
		t.Errorf("devices = %d", sys.TotalDevices())
	}
	if !sys.JointRecoverable([][]int{{0, 4}, {}}) {
		t.Error("partner should rescue a dead pair")
	}
	wc, err := tornado.WorstCase(gA, tornado.WorstCaseOptions{MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs := tornado.CriticalSetsOf(gA, wc.PerK[1].Failures)
	det, err := sys.DetectFirstFailure([][]tornado.CriticalSet{cs, cs}, tornado.FederationSearchOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if det.TotalErased != 4 {
		t.Errorf("mirrored federation first failure detected = %d, want 4", det.TotalErased)
	}
}

func TestPublicBaselines(t *testing.T) {
	if got := tornado.StripingFailGivenK(96, 1); got != 1 {
		t.Errorf("striping P(fail|1) = %v", got)
	}
	if got := tornado.RAID6FailGivenK(8, 12, 2); got != 0 {
		t.Errorf("raid6 P(fail|2) = %v", got)
	}
	if len(tornado.Paper96Schemes()) != 4 {
		t.Error("schemes missing")
	}
	if g := tornado.RAID5Graph(8, 12); g.Total != 96 || g.Data != 88 {
		t.Errorf("raid5 graph shape %v", g)
	}
	if math.Abs(tornado.BinomialPMF(96, 3, 0.01)-0.056) > 0.001 {
		t.Error("BinomialPMF off")
	}
}

func TestPublicAltGraphs(t *testing.T) {
	if g, err := tornado.RegularGraph(48, 4, 1); err != nil || g.Total != 96 {
		t.Errorf("regular: %v %v", g, err)
	}
	if g, err := tornado.FixedCascadeGraph(96, 3, 1); err != nil || g.Total != 96 {
		t.Errorf("cascade: %v %v", g, err)
	}
	if g, _, err := tornado.DoubledTornadoGraph(tornado.DefaultParams(), 1); err != nil || g.Total != 96 {
		t.Errorf("doubled: %v %v", g, err)
	}
	if g, _, err := tornado.ShiftedTornadoGraph(tornado.DefaultParams(), 1); err != nil || g.Total != 96 {
		t.Errorf("shifted: %v %v", g, err)
	}
}

func TestPublicRetrievalAndMAID(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 13)
	if err != nil {
		t.Fatal(err)
	}
	devs := tornado.NewDevices(g.Total)
	shelf, err := tornado.NewShelf(devs, 10)
	if err != nil {
		t.Fatal(err)
	}
	avail := make([]bool, g.Total)
	for i := range avail {
		avail[i] = true
	}
	plan, cost, err := tornado.PlanRetrieval(g, avail, shelf.CostFunc())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 || cost <= 0 {
		t.Errorf("plan %v cost %v", plan, cost)
	}
	if err := shelf.EnsureOn(plan[:5]); err != nil {
		t.Fatal(err)
	}
	if shelf.OnlineCount() == 0 {
		t.Error("nothing spinning")
	}
}

func TestRecoverableHelper(t *testing.T) {
	g := tornado.MirroredGraph(4)
	if !tornado.Recoverable(g, []int{0}) {
		t.Error("single loss should be recoverable")
	}
	if tornado.Recoverable(g, []int{0, 4}) {
		t.Error("dead pair should fail")
	}
	d := tornado.NewDecoder(g)
	if !d.Recoverable([]int{1}) || d.Recoverable([]int{1, 5}) {
		t.Error("decoder helper wrong")
	}
}

// TestBackgroundWrappersStillWork: the facade's short names are the
// ctx-first entry points with context.Background(), result for result.
func TestBackgroundWrappersStillWork(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 2006)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	wc, err := tornado.WorstCase(g, tornado.WorstCaseOptions{MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	wcc, err := tornado.WorstCaseCtx(ctx, g, tornado.WorstCaseOptions{MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wc, wcc) {
		t.Errorf("WorstCase (%+v) and WorstCaseCtx (%+v) disagree", wc, wcc)
	}
	popts := tornado.ProfileOptions{Trials: 500, MinK: 20, MaxK: 21, Seed: 3}
	p, err := tornado.Profile(g, popts)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := tornado.ProfileCtx(ctx, g, popts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, pc) {
		t.Errorf("Profile and ProfileCtx disagree: %v vs %v", p.Fail[20:22], pc.Fail[20:22])
	}
	copts := tornado.CertifyOptions{Seed: 3, MaxTrials: 4096, Epsilon: -1}
	c, err := tornado.Certify(g, 3, copts)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := tornado.CertifyCtx(ctx, g, 3, copts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, cc) {
		t.Errorf("Certify (%+v) and CertifyCtx (%+v) disagree", c, cc)
	}
}

func TestGenerateUnscreenedPublic(t *testing.T) {
	g, err := tornado.GenerateUnscreened(tornado.DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClearCardinalityPublic(t *testing.T) {
	g, _, err := tornado.Generate(tornado.DefaultParams(), 20)
	if err != nil {
		t.Fatal(err)
	}
	improved, rep, err := tornado.ClearCardinality(g, 3, tornado.AdjustOptions{MaxRounds: 8}, 21)
	if err != nil {
		t.Fatal(err)
	}
	if improved == nil {
		t.Fatal("nil graph")
	}
	t.Logf("clear k=3: %+v", rep)
}

func TestPublicFederatedStore(t *testing.T) {
	sites := make([]*tornado.Archive, 3)
	devices := make([]tornado.DeviceArray, 3)
	for i := range sites {
		g, _, err := tornado.Generate(tornado.DefaultParams(), uint64(30+i))
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = tornado.NewDevices(g.Total)
		sites[i], err = tornado.NewArchive(g, devices[i], tornado.ArchiveConfig{BlockSize: 32})
		if err != nil {
			t.Fatal(err)
		}
	}
	wan := tornado.NewWAN(tornado.WANConfig{Sites: 3, Seed: 9})
	f, err := tornado.NewFederatedStore(sites, tornado.FederatedConfig{WriteQuorum: 2, WAN: wan})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A, 0xC3}, 700)
	if err := f.Put("doc", data); err != nil {
		t.Fatal(err)
	}

	// Failover: reads survive losing one site outright.
	wan.LoseSite(1)
	got, err := f.Get("doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get with site 1 down: %v", err)
	}
	wan.RestoreSite(1)

	// Disaster: wipe every device at site 0 and repair it from its peers.
	for id := range devices[0] {
		devices[0][id].Fail()
		devices[0][id].Replace()
	}
	rep, err := f.RepairSite(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
		t.Errorf("residue after site repair: %+v", rep)
	}
	if rep.Exchange.BytesWritten == 0 {
		t.Error("site repair moved zero bytes")
	}
	got, _, err = sites[0].Get("doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("victim site read after repair: %v", err)
	}
}

func TestPublicDisasterSoak(t *testing.T) {
	rep, err := tornado.RunDisasterSoak(tornado.DisasterSoakConfig{Seed: 11, Ops: 80, Objects: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}
