package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cluster"
)

// DomainSweep is the Fig. 7/8-style sweep over failure domains: for
// each placement policy, planner and burst model, an n-scenario
// Monte-Carlo failure campaign runs on the medium random topology (the
// paper's §VI-C baseline spec), and the p95 worst-task recovery latency
// plus the mean relative output loss are reported, alongside the
// answer-quality axis: the mean tentative output fraction and the mean
// corrected fraction of the tentative/correction pipeline. Where
// Figs. 7-8 replay the paper's two fixed injections (one node, all
// nodes), this sweep covers the correlated-failure space in between:
// partial rack bursts, whole-domain outages and cascading multi-domain
// failures. Sweeping placements × planners puts the headline comparison
// on one chart: domain-blind round-robin replica placement vs rack
// anti-affinity, and the worst-case planners vs the correlation-aware
// *-corr variants. A nil placements slice sweeps both policies.
//
// The sweep reads only each campaign's streamed Summary — per-scenario
// results are never retained — so memory stays flat in n and
// million-scenario cells are purely a wall-clock cost.
func DomainSweep(planners []string, placements []cluster.PlacementPolicy, n int, seed int64) (Result, error) {
	if len(placements) == 0 {
		placements = cluster.PlacementPolicies
	}
	res := Result{
		Figure: "Fig. D",
		Title:  fmt.Sprintf("Monte-Carlo failure-domain sweep (%d scenarios/cell)", n),
		XLabel: "burst model",
		YLabel: "p95 latency s / mean loss / mean tentative / mean corrected",
	}
	topo, err := campaign.PresetTopology(campaign.TopoMedium, seed)
	if err != nil {
		return Result{}, err
	}
	// The failure-free baseline depends only on (planner, horizon), not
	// on placement or burst model: one cached baseline simulation per
	// planner serves the whole sweep.
	baselines := campaign.NewBaselineCache()
	for _, planner := range planners {
		// One env per planner: the plan (and the failure-free baseline)
		// is independent of replica placement, so the placement sweep
		// reuses both via SetupFor.
		env, err := campaign.NewEnv(campaign.EnvSpec{Topo: topo, Planner: planner, Tentative: true})
		if err != nil {
			return Result{}, err
		}
		sample, err := env.Cluster()
		if err != nil {
			return Result{}, err
		}
		for _, placement := range placements {
			cell := planner + "/" + placement.String()
			lat := Series{Name: cell + "-p95"}
			loss := Series{Name: cell + "-loss"}
			tent := Series{Name: cell + "-tent"}
			corr := Series{Name: cell + "-corr"}
			for _, model := range campaign.Models {
				scenarios, err := campaign.Generate(sample, campaign.GenSpec{
					Seed:        seed,
					Scenarios:   n,
					Model:       model,
					Correlation: campaign.DefaultCorrelation,
				})
				if err != nil {
					return Result{}, err
				}
				rep, err := campaign.Run(campaign.Config{
					Setup:       env.SetupFor(placement),
					Scenarios:   scenarios,
					Horizon:     150,
					Baselines:   baselines,
					BaselineKey: planner,
				})
				if err != nil {
					return Result{}, fmt.Errorf("experiments: %s/%s campaign: %w", cell, model, err)
				}
				lat.Points = append(lat.Points, Point{X: model.String(), Y: rep.Summary.Latency.P95})
				loss.Points = append(loss.Points, Point{X: model.String(), Y: rep.Summary.Loss.Mean})
				tent.Points = append(tent.Points, Point{X: model.String(), Y: rep.Summary.TentativeFrac.Mean})
				corr.Points = append(corr.Points, Point{X: model.String(), Y: rep.Summary.CorrectedFrac.Mean})
			}
			res.Series = append(res.Series, lat, loss, tent, corr)
		}
	}
	return res, nil
}
