package exp

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"

	"tornado/internal/altgraph"
	"tornado/internal/core"
	"tornado/internal/defect"
	"tornado/internal/federation"
	"tornado/internal/raid"
	"tornado/internal/reliability"
	"tornado/internal/sim"
)

// System is one comparison row: a named storage scheme with its failure
// curve over a 96-device array.
type System struct {
	Name    string
	Devices int
	Data    int
	Parity  int
	// FailGivenK is P(data loss | k devices offline).
	FailGivenK func(k int) float64
	// FirstFailure is the smallest k with nonzero failure probability
	// (analytic for RAID, measured for graphs; 0 = none observed).
	FirstFailure int
}

// AvgToReconstruct is the expected minimum online-node count for
// reconstruction, Σ_m P(fail | m online).
func (s System) AvgToReconstruct() float64 {
	sum := 0.0
	for m := 0; m < s.Devices; m++ {
		sum += s.FailGivenK(s.Devices - m)
	}
	return sum
}

// analyticSystem wraps a closed-form baseline.
func analyticSystem(name string, devices, data int, f func(int) float64) System {
	ff := 0
	for k := 1; k <= devices; k++ {
		if f(k) > 0 {
			ff = k
			break
		}
	}
	return System{Name: name, Devices: devices, Data: data, Parity: devices - data,
		FailGivenK: f, FirstFailure: ff}
}

// graphSystem wraps a measured graph profile.
func graphSystem(tg *TornadoGraph) System {
	return System{
		Name:    tg.Name,
		Devices: tg.Graph.Total,
		Data:    tg.Graph.Data,
		Parity:  tg.Graph.Total - tg.Graph.Data,
		FailGivenK: func(k int) float64 {
			if k <= tg.FirstFailure-1 {
				// Certified by exhaustive search: no failure below the
				// first-failure point.
				return 0
			}
			if k == tg.FirstFailure && tg.TestedAtFF > 0 {
				// Exact fraction from the exhaustive certification; the
				// sampled profile cannot resolve ~1e-7 fractions and this
				// term dominates the reliability integral (§5.1).
				return float64(tg.FailuresAtFF) / float64(tg.TestedAtFF)
			}
			return tg.Profile.FailFraction(k)
		},
		FirstFailure: tg.FirstFailure,
	}
}

// Baselines96 returns the analytic comparison systems.
func Baselines96() []System {
	return []System{
		analyticSystem("Striping", 96, 96, func(k int) float64 { return raid.StripingFailGivenK(96, k) }),
		analyticSystem("RAID5 (8x12)", 96, 88, func(k int) float64 { return raid.RAID5FailGivenK(8, 12, k) }),
		analyticSystem("RAID6 (8x12)", 96, 80, func(k int) float64 { return raid.RAID6FailGivenK(8, 12, k) }),
		analyticSystem("Mirrored", 96, 48, func(k int) float64 { return raid.MirroredFailGivenK(48, k) }),
	}
}

func renderTable(title string, header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range widths {
		_ = i
		b.WriteString(strings.Repeat("-", w) + "  ")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func ffString(ff int, certifyK int) string {
	if ff == 0 {
		return fmt.Sprintf(">%d", certifyK)
	}
	return fmt.Sprintf("%d", ff)
}

func avgString(s System) string {
	avg := s.AvgToReconstruct()
	return fmt.Sprintf("%.2f (%.2f)", avg, avg/float64(s.Data))
}

// Table1 reproduces Figure 3 / Table 1: RAID and mirrored baselines
// against the prepared Tornado graphs (first failure and average number of
// nodes capable of reconstructing the data).
func Table1(cfg Config, tornadoes []*TornadoGraph) (string, []System) {
	systems := Baselines96()
	for _, tg := range tornadoes {
		systems = append(systems, graphSystem(tg))
	}
	var rows [][]string
	for _, s := range systems {
		rows = append(rows, []string{s.Name, ffString(s.FirstFailure, cfg.CertifyK), avgString(s)})
	}
	return renderTable(
		"Table 1 / Figure 3 — RAID vs Tornado (96 devices)",
		[]string{"System", "First Failure", "Avg to Reconstruct"},
		rows,
	), systems
}

// Table2 reproduces Figure 4 / Table 2: the effect of defect screening and
// feedback adjustment. It regenerates an unscreened and a screened-only
// graph from the first seed and compares them with the fully adjusted
// graphs.
func Table2(cfg Config, tornadoes []*TornadoGraph) (string, []System, error) {
	seed := cfg.Seeds[0]

	raw, err := core.GenerateUnscreened(core.DefaultParams(), rand.New(rand.NewPCG(seed, 0)))
	if err != nil {
		return "", nil, err
	}
	raw.Name = "Unscreened (no defect detection)"
	rawTG, err := ProfileGraph(cfg, raw)
	if err != nil {
		return "", nil, err
	}

	screened, _, err := core.Generate(core.DefaultParams(), rand.New(rand.NewPCG(seed, 0)))
	if err != nil {
		return "", nil, err
	}
	screened.Name = "Screened (defect detection)"
	scrTG, err := ProfileGraph(cfg, screened)
	if err != nil {
		return "", nil, err
	}

	systems := []System{graphSystem(rawTG), graphSystem(scrTG)}
	for _, tg := range tornadoes {
		s := graphSystem(tg)
		s.Name = tg.Name + " (adjusted)"
		systems = append(systems, s)
	}
	var rows [][]string
	for _, s := range systems {
		rows = append(rows, []string{s.Name, ffString(s.FirstFailure, cfg.CertifyK), avgString(s)})
	}
	note := fmt.Sprintf("unscreened defects up to size 3: %d", len(defect.ScanDataLevel(raw, 3)))
	return renderTable(
		"Table 2 / Figure 4 — defect detection and adjustment ("+note+")",
		[]string{"System", "First Failure", "Avg to Reconstruct"},
		rows,
	), systems, nil
}

// Table3 reproduces Figure 5 / Table 3: regular single-stage graphs and
// altered Tornado distributions against the best Tornado graph.
func Table3(cfg Config, tornadoes []*TornadoGraph) (string, []System, error) {
	var systems []System
	rng := rand.New(rand.NewPCG(cfg.Seeds[0], 3))

	for _, deg := range []int{4, 11} {
		g, err := altgraph.RegularSingleStage(48, deg, rng)
		if err != nil {
			return "", nil, err
		}
		g.Name = fmt.Sprintf("Regular - Degree = %d", deg)
		tg, err := ProfileGraph(cfg, g)
		if err != nil {
			return "", nil, err
		}
		systems = append(systems, graphSystem(tg))
	}

	doubled, _, err := altgraph.DoubledTornado(core.DefaultParams(), rng)
	if err != nil {
		return "", nil, err
	}
	doubled.Name = "Altered Tornado (dist. doubled)"
	dTG, err := ProfileGraph(cfg, doubled)
	if err != nil {
		return "", nil, err
	}
	systems = append(systems, graphSystem(dTG))

	shifted, _, err := altgraph.ShiftedTornado(core.DefaultParams(), rng)
	if err != nil {
		return "", nil, err
	}
	shifted.Name = "Altered Tornado (dist. shifted)"
	sTG, err := ProfileGraph(cfg, shifted)
	if err != nil {
		return "", nil, err
	}
	systems = append(systems, graphSystem(sTG))

	best := BestTornado(tornadoes)
	bs := graphSystem(best)
	bs.Name = best.Name + " (best)"
	systems = append(systems, bs)

	var rows [][]string
	for _, s := range systems {
		rows = append(rows, []string{s.Name, ffString(s.FirstFailure, cfg.CertifyK), avgString(s)})
	}
	return renderTable(
		"Table 3 / Figure 5 — Tornado vs alternate graph families",
		[]string{"System", "First Failure", "Avg to Reconstruct"},
		rows,
	), systems, nil
}

// Table4 reproduces Figure 6 / Table 4: fixed-degree cascaded random
// graphs against the best Tornado graph.
func Table4(cfg Config, tornadoes []*TornadoGraph) (string, []System, error) {
	var systems []System
	rng := rand.New(rand.NewPCG(cfg.Seeds[0], 4))
	for _, deg := range []int{6, 4, 3} {
		g, err := altgraph.FixedCascade(96, deg, rng)
		if err != nil {
			return "", nil, err
		}
		g.Name = fmt.Sprintf("Cascaded - Degree = %d", deg)
		tg, err := ProfileGraph(cfg, g)
		if err != nil {
			return "", nil, err
		}
		systems = append(systems, graphSystem(tg))
	}
	best := BestTornado(tornadoes)
	bs := graphSystem(best)
	bs.Name = best.Name + " (best)"
	systems = append(systems, bs)

	var rows [][]string
	for _, s := range systems {
		rows = append(rows, []string{s.Name, ffString(s.FirstFailure, cfg.CertifyK), avgString(s)})
	}
	return renderTable(
		"Table 4 / Figure 6 — fixed-degree cascades vs Tornado",
		[]string{"System", "First Failure", "Avg to Reconstruct"},
		rows,
	), systems, nil
}

// BestTornado picks the prepared graph with the latest first failure,
// breaking ties by lower average-to-reconstruct (the paper's "Tornado
// Graph 3 (best)").
func BestTornado(tornadoes []*TornadoGraph) *TornadoGraph {
	best := tornadoes[0]
	for _, tg := range tornadoes[1:] {
		bf, tf := best.FirstFailure, tg.FirstFailure
		if bf == 0 {
			bf = 1 << 30
		}
		if tf == 0 {
			tf = 1 << 30
		}
		switch {
		case tf > bf:
			best = tg
		case tf == bf && graphSystem(tg).AvgToReconstruct() < graphSystem(best).AvgToReconstruct():
			best = tg
		}
	}
	return best
}

// Table5 reproduces Table 5: the theoretical probability of data loss for
// 96-disk systems at AFR p = 0.01 with no repair, composing Equations
// (2)–(3) with each system's failure curve.
func Table5(cfg Config, tornadoes []*TornadoGraph, afr float64) (string, map[string]float64) {
	type row struct {
		name         string
		data, parity int
		pfail        float64
	}
	rows := []row{{"Individual Disk", 96, 0, afr}}
	pfails := map[string]float64{"Individual Disk": afr}
	for _, s := range Baselines96() {
		p := reliability.SystemFailure(s.Devices, afr, s.FailGivenK)
		rows = append(rows, row{s.Name, s.Data, s.Parity, p})
		pfails[s.Name] = p
	}
	for _, tg := range tornadoes {
		s := graphSystem(tg)
		p := reliability.SystemFailure(s.Devices, afr, s.FailGivenK)
		rows = append(rows, row{s.Name, s.Data, s.Parity, p})
		pfails[s.Name] = p
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.name, fmt.Sprintf("%d", r.data), fmt.Sprintf("%d", r.parity), fmt.Sprintf("%.4g", r.pfail)})
	}
	return renderTable(
		fmt.Sprintf("Table 5 — P(fail) for 96-disk systems, AFR p=%.2g, no repair", afr),
		[]string{"System", "Data", "Parity", "P(fail)"},
		cells,
	), pfails
}

// Table6 reproduces Table 6: the number of nodes required for 50%
// reconstruction success and the resulting overhead.
func Table6(tornadoes []*TornadoGraph) (string, []int) {
	var rows [][]string
	var nodes []int
	for _, tg := range tornadoes {
		n := tg.Profile.NodesForSuccessProbability(0.5)
		nodes = append(nodes, n)
		rows = append(rows, []string{tg.Name, fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", tg.Profile.Overhead())})
	}
	return renderTable(
		"Table 6 — nodes for 50% reconstruction success and overhead",
		[]string{"System", "Nodes", "Overhead"},
		rows,
	), nodes
}

// Table7 reproduces Table 7: first failure detected for two-site federated
// systems — quadruple mirroring, the same Tornado graph twice, and the
// complementary pairs.
func Table7(cfg Config, tornadoes []*TornadoGraph) (string, map[string]int, error) {
	detected := map[string]int{}
	var rows [][]string

	// Mirrored (4 copies): two mirrored-48 sites.
	m := raid.MirroredGraph(48)
	wc, err := sim.WorstCaseCtx(context.Background(), m, sim.WorstCaseOptions{MaxK: 2, Workers: cfg.Workers})
	if err != nil {
		return "", nil, err
	}
	mcs := federation.CriticalSets(m, wc.PerK[len(wc.PerK)-1].Failures)
	msys, err := federation.NewSystem(m, m.Clone())
	if err != nil {
		return "", nil, err
	}
	det, err := msys.DetectFirstFailure([][]federation.CriticalSet{mcs, mcs}, federation.SearchOptions{Seed: 70})
	if err != nil {
		return "", nil, err
	}
	detected["Mirrored (4 copies)"] = det.TotalErased
	rows = append(rows, []string{"Mirrored (4 copies)", fmt.Sprintf("%d", det.TotalErased)})

	pairs := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 2}}
	for _, pr := range pairs {
		a, b := tornadoes[pr[0]], tornadoes[pr[1]]
		name := fmt.Sprintf("Tornado %d + Tornado %d", pr[0]+1, pr[1]+1)
		gB := b.Graph
		if pr[0] == pr[1] {
			gB = a.Graph.Clone()
		}
		sys, err := federation.NewSystem(a.Graph, gB)
		if err != nil {
			return "", nil, err
		}
		csA := federation.CriticalSets(a.Graph, a.CriticalSets)
		csB := federation.CriticalSets(gB, b.CriticalSets)
		if len(csA) == 0 || len(csB) == 0 {
			rows = append(rows, []string{name, "n/a (no critical sets found)"})
			continue
		}
		det, err := sys.DetectFirstFailure([][]federation.CriticalSet{csA, csB}, federation.SearchOptions{Seed: 71})
		if err != nil {
			return "", nil, err
		}
		detected[name] = det.TotalErased
		rows = append(rows, []string{name, fmt.Sprintf("%d", det.TotalErased)})
	}
	return renderTable(
		"Table 7 — first failure detected, two-site federation",
		[]string{"System", "First Failure Detected"},
		rows,
	), detected, nil
}

// Eq1Validation reproduces the paper's simulator validation: the sampled
// mirrored-system profile against the Equation (1) theory, reporting the
// largest absolute deviation across all offline counts.
func Eq1Validation(cfg Config) (string, float64, error) {
	g := raid.MirroredGraph(48)
	p, err := sim.FailureProfileCtx(context.Background(), g, sim.ProfileOptions{
		Trials: cfg.Trials, Workers: cfg.Workers, Seed: 0xE9,
	})
	if err != nil {
		return "", 0, err
	}
	maxAbs := 0.0
	var rows [][]string
	for k := 1; k <= 96; k++ {
		want := raid.MirroredFailGivenK(48, k)
		got := p.FailFraction(k)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff > maxAbs {
			maxAbs = diff
		}
		if k <= 12 || k%12 == 0 {
			exact := ""
			if p.Exact[k] {
				exact = " (exact)"
			}
			rows = append(rows, []string{fmt.Sprintf("%d", k),
				fmt.Sprintf("%.9f", got), fmt.Sprintf("%.9f", want), fmt.Sprintf("%.2g%s", diff, exact)})
		}
	}
	return renderTable(
		"Equation (1) validation — simulated mirrored profile vs theory",
		[]string{"k offline", "Simulated", "Theory", "|diff|"},
		rows,
	), maxAbs, nil
}
