package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Runner{
		Name:  "fig62",
		Title: "Figure 6-2: work-pile throughput vs server count (P=32, So=131) with Eq. 6.8 optimum",
		Run:   runFig62,
	})
}

// Figure 6-2 constants. The paper states only the handler time (131
// cycles); the mean chunk size is not recoverable from the text, so
// W=1500 with exponentially distributed chunks is used (documented in
// DESIGN.md) — work-piles exist precisely because chunk sizes are
// highly variable.
const (
	fig62So = 131.0
	fig62W  = 1500.0
)

// fig62Window is the measured window of a point with the given number
// of clients. Only clients complete chunks, so the window grows as
// 1/clients (floor: the configured window), which holds every point
// with eight or fewer clients at the chunk count of the eight-client
// point: on the floor alone, one seed of the one- and two-client points
// (about 800 chunks) left their error column several percent of noise.
func fig62Window(measure float64, clients int) float64 {
	return max(measure, measure*8/float64(clients))
}

func runFig62(cfg Config) (*Report, error) {
	warm, measure := cfg.window()
	tab := &Table{
		Title:   "Work-pile throughput (chunks/cycle) vs servers, P=32, So=131, W=1500 (exp), C²=0, St=40",
		Columns: []string{"Ps", "sim X", "LoPC X", "err", "server bnd", "client bnd", "sim Qs", "mod Qs", "sim Us"},
	}
	plot := &Plot{
		Title:  "Fig 6-2: throughput vs number of servers",
		XLabel: "servers", YLabel: "X",
	}
	var pss, simY, modY, sbY, cbY []float64
	bestSimPs, bestSimX := 0, -1.0
	step := 1
	if cfg.Quick {
		step = 3
	}
	var serverCounts []int
	for ps := 1; ps < figP; ps += step {
		serverCounts = append(serverCounts, ps)
	}
	type fig62Point struct {
		model          core.ClientServerResult
		sim            workload.WorkpileResult
		server, client float64
	}
	pts, err := points(cfg, len(serverCounts), func(i int) (fig62Point, error) {
		ps := serverCounts[i]
		csp := core.ClientServerParams{P: figP, Ps: ps, W: fig62W, St: figSt, So: fig62So, C2: 0}
		model, err := core.ClientServer(csp)
		if err != nil {
			return fig62Point{}, err
		}
		sim, err := workload.RunWorkpile(workload.WorkpileConfig{
			P: figP, Ps: ps,
			Chunk:      dist.NewExponential(fig62W),
			Latency:    dist.NewDeterministic(figSt),
			Service:    dist.NewDeterministic(fig62So),
			WarmupTime: warm, MeasureTime: fig62Window(measure, figP-ps),
			Seed: cfg.Seed,
		})
		if err != nil {
			return fig62Point{}, err
		}
		server, client := core.ClientServerBounds(csp)
		return fig62Point{model, sim, server, client}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		ps, model, sim := serverCounts[i], pt.model, pt.sim
		tab.AddRow(fmt.Sprintf("%d", ps),
			fmt.Sprintf("%.5f", sim.X), fmt.Sprintf("%.5f", model.X),
			Pct(stats.RelErr(model.X, sim.X)),
			fmt.Sprintf("%.5f", pt.server), fmt.Sprintf("%.5f", pt.client),
			fmt.Sprintf("%.3f", sim.Qs), fmt.Sprintf("%.3f", model.Qs),
			fmt.Sprintf("%.3f", sim.Us))
		pss = append(pss, float64(ps))
		simY = append(simY, sim.X)
		modY = append(modY, model.X)
		sbY = append(sbY, pt.server)
		cbY = append(cbY, pt.client)
		if sim.X > bestSimX {
			bestSimPs, bestSimX = ps, sim.X
		}
	}
	plot.Add("sim", pss, simY, 'o')
	plot.Add("LoPC", pss, modY, '*')
	plot.Add("server bound", pss, sbY, '.')
	plot.Add("client bound", pss, cbY, ',')

	base := core.ClientServerParams{P: figP, Ps: 1, W: fig62W, St: figSt, So: fig62So, C2: 0}
	optReal := core.OptimalServers(base)
	optInt, err := core.OptimalServersInt(base)
	if err != nil {
		return nil, err
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("Eq. 6.8 optimal servers: %.2f (integral best %d); simulated argmax: %d", optReal, optInt, bestSimPs),
		fmt.Sprintf("closed-form peak throughput: %.5f; simulated peak: %.5f", core.PeakThroughput(base), bestSimX),
		"paper: LoPC conservative by at most 3%; bounds tight only where parallelism is poor")

	return &Report{
		Name:   "fig62",
		Title:  registry["fig62"].Title,
		Tables: []*Table{tab},
		Plots:  []*Plot{plot},
	}, nil
}
