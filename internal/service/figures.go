package service

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/system"
	"repro/internal/workload"
)

// FigureIDs lists the figure ids /figures serves, in thesis order: every
// entry of the experiments figure table that derives from runs (Table 4.1
// is the machine configuration itself).
func FigureIDs() []string {
	var ids []string
	for _, f := range experiments.Figures() {
		if len(f.Suites) > 0 {
			ids = append(ids, f.ID)
		}
	}
	return ids
}

// Figure derives one entry of the experiments figure table at the given
// scale. Every run resolves through the cached Run path, so repeat figure
// requests re-simulate nothing and figures sharing runs simulate them
// once; a suite's runs are all in flight at once, so cache hits never
// queue and the shared budget alone bounds the simulations. The returned
// value is the figure's JSON-marshalable data table.
func (s *Server) Figure(ctx context.Context, id string, scale workload.Scale) (any, error) {
	f, ok := experiments.FigureByID(id)
	if !ok {
		return nil, fmt.Errorf("service: unknown figure %q (want one of %v)", id, FigureIDs())
	}
	return f.Compute(ctx, scale, s.runPoint)
}

// runPoint is the cached sweep.PointRunner: a default-configuration point
// shares its cache key with the same /run job.
func (s *Server) runPoint(ctx context.Context, cfg *system.Config, wl string, scale workload.Scale) (*system.Results, error) {
	res, _, err := s.Run(ctx, Job{Workload: wl, Scheme: cfg.Scheme, Scale: scale, Config: cfg})
	return res, err
}
