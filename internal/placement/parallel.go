package placement

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// GreedyParallel is Algorithm 2 with each iteration's candidate
// evaluations fanned out across worker goroutines. The reduction uses the
// same deterministic tie-break as Greedy (smallest service index, then
// smallest host ID), so the resulting placement is bit-for-bit identical
// to the sequential algorithm — only faster on instances where a single
// evaluation is expensive (large networks, k ≥ 2 objectives).
//
// workers ≤ 0 selects GOMAXPROCS.
func GreedyParallel(inst *Instance, obj Objective, workers int) (*Result, error) {
	return GreedyParallelCtx(context.Background(), inst, obj, workers)
}

// GreedyParallelCtx is GreedyParallel bounded by ctx: cancellation is
// observed once per round on the coordinating goroutine (an in-flight
// fan-out finishes first), and the returned error wraps ctx.Err().
func GreedyParallelCtx(ctx context.Context, inst *Instance, obj Objective, workers int) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("placement: nil objective")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	res := &Result{Placement: NewPlacement(inst.NumServices())}
	base := obj.newEvaluator(inst.NumNodes())
	placed := make([]bool, inst.NumServices())

	type candidate struct {
		service int
		host    int
		elem    int
	}
	type verdict struct {
		candidate
		gain float64
	}

	for iter := 0; iter < inst.NumServices(); iter++ {
		if ctx.Err() != nil {
			return nil, errCanceled(ctx, iter)
		}
		var work []candidate
		for s := 0; s < inst.NumServices(); s++ {
			if placed[s] {
				continue
			}
			for i, h := range inst.candidates[s] {
				work = append(work, candidate{service: s, host: h, elem: inst.elemIndex[s][i]})
			}
		}
		if len(work) == 0 {
			return nil, fmt.Errorf("placement: no feasible placement at iteration %d", iter)
		}

		verdicts := make([]verdict, len(work))
		var wg sync.WaitGroup
		chunk := (len(work) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(work) {
				break
			}
			hi := lo + chunk
			if hi > len(work) {
				hi = len(work)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					c := work[i]
					verdicts[i] = verdict{candidate: c, gain: base.Gain(inst.elements[c.elem].evalPaths)}
				}
			}(lo, hi)
		}
		wg.Wait()

		bestIdx := -1
		for i, v := range verdicts {
			if bestIdx < 0 || v.gain > verdicts[bestIdx].gain {
				bestIdx = i
			}
			// Every candidate shares the base, so the largest gain is the
			// largest value; work is generated in (service, host) order,
			// so the first maximum already respects the sequential
			// tie-break.
		}
		res.Evaluations += len(work)

		chosen := verdicts[bestIdx]
		base.Add(inst.elements[chosen.elem].evalPaths)
		placed[chosen.service] = true
		res.Placement.Hosts[chosen.service] = chosen.host
		res.Order = append(res.Order, chosen.service)
	}
	res.Value = base.Value()
	return res, nil
}
