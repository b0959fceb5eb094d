package reconcile

import "github.com/sociograph/reconcile/internal/core"

// PathNames lists the four runs the root suites compare, named after the
// execution paths internal/core's suites pin. Outside that package a run's
// path is set by its worker count and by the regime it starts in:
//
//   - sequential: one worker;
//   - parallel: three workers;
//   - frontier: the frontier regime from the first bucket;
//   - hybrid: the default, the full scan handing off to the frontier.
//
// Every path produces the same links.
var PathNames = []string{"sequential", "parallel", "frontier", "hybrid"}

// NewOnPath is New on one of the PathNames.
func NewOnPath(path string, g1, g2 *Graph, opts ...Option) (*Reconciler, error) {
	switch path {
	case "sequential":
		opts = append(opts, WithWorkers(1))
	case "parallel":
		opts = append(opts, WithWorkers(3))
	case "frontier":
		return newFrontierStart(g1, g2, opts)
	}
	return New(g1, g2, opts...)
}

// newFrontierStart is New with the session in the frontier regime before
// its first bucket, the state a restore installs from a record whose regime
// bit is set, so every bucket it runs takes the frontier path.
func newFrontierStart(g1, g2 *Graph, opts []Option) (*Reconciler, error) {
	s := settings{opts: DefaultOptions()}
	for _, opt := range opts {
		opt(&s)
	}
	sess, err := core.NewSession(g1, g2, s.seeds, s.opts)
	if err != nil {
		return nil, err
	}
	st := sess.ExportState()
	st.HybridFrontier = true
	if sess, err = core.RestoreSession(g1, g2, st); err != nil {
		return nil, err
	}
	sess.SetProgress(s.progress)
	sess.SetTracer(s.tracer)
	return &Reconciler{sess: sess, opts: s.opts}, nil
}
