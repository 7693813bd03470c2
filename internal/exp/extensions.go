package exp

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"tornado/internal/lec"
	"tornado/internal/reliability"
	"tornado/internal/sim"
)

// TableOverhead measures the reconstruction-overhead distribution of each
// prepared graph (the §5.2/§6 future-work experiment): the minimum number
// of randomly ordered blocks needed to reconstruct, as mean / median / 99th
// percentile, with the resulting overhead factors.
func TableOverhead(cfg Config, tornadoes []*TornadoGraph) (string, []float64, error) {
	var rows [][]string
	var means []float64
	trials := cfg.Trials / 10
	if trials < 1000 {
		trials = 1000
	}
	for _, tg := range tornadoes {
		res, err := sim.OverheadCtx(context.Background(), tg.Graph, sim.OverheadOptions{
			Trials: trials, Workers: cfg.Workers, Seed: 0xBEEF,
		})
		if err != nil {
			return "", nil, err
		}
		means = append(means, res.Mean())
		rows = append(rows, []string{
			tg.Name,
			fmt.Sprintf("%.2f", res.Mean()),
			fmt.Sprintf("%d", res.Quantile(0.5)),
			fmt.Sprintf("%d", res.Quantile(0.99)),
			fmt.Sprintf("%.3f", res.MeanOverhead()),
		})
	}
	return renderTable(
		"Extension — reconstruction overhead (minimum random-order retrievals)",
		[]string{"System", "Mean", "Median", "p99", "Overhead"},
		rows,
	), means, nil
}

// TableMTTDL extends Table 5 with repair: mean time to data loss (years)
// for each system under no repair, a slow rebuild (1 repairman, 1 month)
// and a fast rebuild (4 repairmen, 1 week), at AFR p = 0.01.
func TableMTTDL(cfg Config, tornadoes []*TornadoGraph, afr float64) (string, map[string]float64, error) {
	lambda := -math.Log(1 - afr) // per-year device failure rate

	type policy struct {
		name      string
		mu        float64
		repairmen int
	}
	policies := []policy{
		{"no repair", 0, 0},
		{"1 rebuild/mo", 12, 1},
		{"4 rebuilds/wk", 52, 4},
	}

	systems := Baselines96()
	for _, tg := range tornadoes {
		systems = append(systems, graphSystem(tg))
	}

	out := map[string]float64{}
	var rows [][]string
	for _, s := range systems {
		row := []string{s.Name}
		for _, pol := range policies {
			m, err := reliability.MTTDL(s.Devices, lambda, pol.mu, pol.repairmen, s.FailGivenK)
			if err != nil {
				return "", nil, err
			}
			row = append(row, formatYears(m))
			if pol.repairmen == 0 {
				out[s.Name] = m
			}
		}
		rows = append(rows, row)
	}
	header := []string{"System"}
	for _, pol := range policies {
		header = append(header, pol.name)
	}
	return renderTable(
		fmt.Sprintf("Extension — MTTDL in years under repair (AFR p=%.2g)", afr),
		header, rows,
	), out, nil
}

// TableLEC compares an automatically searched LEC-style graph (the §2.1
// future-work family) against the best prepared Tornado graph on the
// standard metrics.
func TableLEC(cfg Config, tornadoes []*TornadoGraph) (string, []System, error) {
	lecGraph, st, err := lec.Generate(48, 48, lec.Options{
		Candidates: 12, ScreenK: min(cfg.CertifyK, 3), Workers: cfg.Workers,
	}, rand.New(rand.NewPCG(cfg.Seeds[0], 8)))
	if err != nil {
		return "", nil, err
	}
	lecGraph.Name = fmt.Sprintf("LEC-style (best of %d)", st.Candidates)
	lecTG, err := ProfileGraph(cfg, lecGraph)
	if err != nil {
		return "", nil, err
	}
	best := BestTornado(tornadoes)
	bs := graphSystem(best)
	bs.Name = best.Name + " (best)"
	systems := []System{graphSystem(lecTG), bs}

	var rows [][]string
	for _, s := range systems {
		rows = append(rows, []string{s.Name, ffString(s.FirstFailure, cfg.CertifyK), avgString(s)})
	}
	return renderTable(
		"Extension — LEC-style family vs Tornado (documented approximation)",
		[]string{"System", "First Failure", "Avg to Reconstruct"},
		rows,
	), systems, nil
}

func formatYears(y float64) string {
	switch {
	case y >= 1e6:
		return fmt.Sprintf("%.3g My", y/1e6)
	case y >= 1e3:
		return fmt.Sprintf("%.3g ky", y/1e3)
	default:
		return fmt.Sprintf("%.3g y", y)
	}
}
