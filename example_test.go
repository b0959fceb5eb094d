package reconcile_test

import (
	"context"
	"fmt"

	"github.com/sociograph/reconcile"
)

// The basic model end to end: a hidden network, two partial copies, a few
// seed links, reconciliation, evaluation.
func ExampleNew() {
	r := reconcile.NewRand(7)
	world := reconcile.GeneratePA(r, 2000, 10)
	g1, g2 := reconcile.IndependentCopies(r, world, 0.7, 0.7)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(2000), 0.10)

	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		panic(err)
	}
	res, err := rec.Run(context.Background())
	if err != nil {
		panic(err)
	}
	c := reconcile.Evaluate(res.Pairs, res.Seeds, reconcile.IdentityTruth(2000))
	fmt.Printf("good=%d bad=%d\n", c.Good, c.Bad)
	// Output: good=1768 bad=5
}

// Incremental reconciliation: run, learn more trusted links, resume.
func ExampleReconciler_AddSeeds() {
	r := reconcile.NewRand(7)
	world := reconcile.GeneratePA(r, 2000, 10)
	g1, g2 := reconcile.IndependentCopies(r, world, 0.7, 0.7)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(2000), 0.10)
	ctx := context.Background()

	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds[:len(seeds)/2]))
	if err != nil {
		panic(err)
	}
	if _, err := rec.RunUntilStable(ctx, 10); err != nil {
		panic(err)
	}
	phase1 := rec.Len()

	for _, s := range seeds[len(seeds)/2:] {
		// A late seed can conflict with an existing link; skip those.
		_ = rec.AddSeeds([]reconcile.Pair{s})
	}
	if _, err := rec.RunUntilStable(ctx, 10); err != nil {
		panic(err)
	}
	fmt.Printf("grew=%v\n", rec.Len() >= phase1)
	// Output: grew=true
}

// Options control the precision/recall trade: higher thresholds are
// stricter.
func ExampleOptions() {
	opts := reconcile.DefaultOptions()
	opts.Threshold = 3 // require 3 similarity witnesses
	opts.MinMargin = 1 // and a strict gap over the runner-up
	opts.Engine = reconcile.EngineSequential
	fmt.Println(opts.Threshold, opts.MinMargin)
	// Output: 3 1
}
