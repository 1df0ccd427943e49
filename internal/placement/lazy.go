package placement

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// This file implements the CELF ("cost-effective lazy forward") variant of
// Algorithm 2. For a monotone submodular objective the marginal gain of a
// candidate can only shrink as the placement grows (diminishing returns,
// Lemmas 13 and 17), so a gain cached in an earlier round is a valid upper
// bound on the current gain. The engine keeps every (service, host)
// candidate in a max-heap keyed by its cached gain and re-evaluates only
// the top entry when its cache is stale; most candidates are never looked
// at again after the initial sweep, which is where the evaluation savings
// in BENCH_*.json come from. The placement produced is bit-for-bit
// identical to Greedy's, including the deterministic tie-break.

// lazyEntry is one heap slot: a ground element (service, host) with the
// cached marginal gain and the round it was computed in.
type lazyEntry struct {
	elem  int
	gain  float64
	round int
}

// lazyHeap orders entries by gain descending, then ground-element index
// ascending. Element indices are assigned in (service, candidate-position)
// scan order, so the secondary key reproduces Greedy's first-maximum
// tie-break (smaller service index, then smaller host ID) exactly. It is
// a binary heap over the typed slice rather than a container/heap
// implementation: boxing each entry into an interface cost an
// allocation per push and per pop, more than the Gain evaluation the
// entry caches.
type lazyHeap []lazyEntry

func (h lazyHeap) less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].elem < h[j].elem
}

func (h lazyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *lazyHeap) push(e lazyEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *lazyHeap) pop() lazyEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old[:n].down(0)
	*h = old[:n]
	return old[n]
}

func (h lazyHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h lazyHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// GreedyLazy runs Algorithm 2 with CELF-style lazy evaluation: identical
// output to Greedy — same hosts, same order, same value under the
// deterministic tie-break — with far fewer objective evaluations, because
// cached marginal gains are upper bounds under submodularity and only the
// heap top is ever re-evaluated.
//
// The trick is sound only for monotone submodular objectives (coverage
// and distinguishability, Lemmas 13 and 17). Identifiability is not
// submodular (Propositions 15 and 16), so it is routed to the exact
// Greedy automatically; the returned Result is then exactly Greedy's.
func GreedyLazy(inst *Instance, obj Objective) (*Result, error) {
	return GreedyLazyWithProgress(inst, obj, nil)
}

// GreedyLazyWithProgress is GreedyLazy with a per-round progress hook;
// the hook only observes the computation (round winner, gain, candidate
// pops, evaluations, duration) and never changes it. Non-submodular
// objectives route to GreedyWithProgress, so the hook fires either way.
func GreedyLazyWithProgress(inst *Instance, obj Objective, progress ProgressFunc) (*Result, error) {
	return GreedyLazyCtx(context.Background(), inst, obj, progress)
}

// GreedyLazyCtx is GreedyLazyWithProgress bounded by ctx: cancellation
// is observed once per round, at the same hook sites the progress
// callback uses, so a drained or abandoned job stops burning CPU within
// one round. The returned error wraps ctx.Err(). A background context
// reproduces GreedyLazy exactly.
func GreedyLazyCtx(ctx context.Context, inst *Instance, obj Objective, progress ProgressFunc) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("placement: nil objective")
	}
	if !obj.submodular() {
		return GreedyCtx(ctx, inst, obj, progress)
	}
	return greedyLazy(ctx, inst, obj, 1, progress)
}

// GreedyLazyParallel is GreedyLazy with the evaluations fanned out across
// worker goroutines: the initial sweep is chunked like GreedyParallel,
// and within a round consecutive stale heap tops are re-evaluated as one
// parallel batch instead of one at a time. The placement is identical to
// Greedy and GreedyLazy; only Result.Evaluations may be slightly higher
// than GreedyLazy's (a batch can refresh entries the sequential engine
// would not have reached), never higher than Greedy's ground-set sweep.
//
// Non-submodular objectives fall back to GreedyParallel. workers ≤ 0
// selects GOMAXPROCS.
func GreedyLazyParallel(inst *Instance, obj Objective, workers int) (*Result, error) {
	return GreedyLazyParallelWithProgress(inst, obj, workers, nil)
}

// GreedyLazyParallelWithProgress is GreedyLazyParallel with a per-round
// progress hook (see GreedyLazyWithProgress). The hook runs on the
// coordinating goroutine, never inside the evaluation fan-out.
func GreedyLazyParallelWithProgress(inst *Instance, obj Objective, workers int, progress ProgressFunc) (*Result, error) {
	return GreedyLazyParallelCtx(context.Background(), inst, obj, workers, progress)
}

// GreedyLazyParallelCtx is GreedyLazyParallelWithProgress bounded by ctx
// (see GreedyLazyCtx); the cancellation check runs on the coordinating
// goroutine between rounds, never inside the evaluation fan-out.
func GreedyLazyParallelCtx(ctx context.Context, inst *Instance, obj Objective, workers int, progress ProgressFunc) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("placement: nil objective")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if !obj.submodular() {
		return GreedyParallelCtx(ctx, inst, obj, workers)
	}
	return greedyLazy(ctx, inst, obj, workers, progress)
}

// greedyLazy is the shared CELF engine; workers == 1 is the sequential
// variant.
func greedyLazy(ctx context.Context, inst *Instance, obj Objective, workers int, progress ProgressFunc) (*Result, error) {
	return greedyLazySeeded(ctx, inst, obj, workers, progress, nil, 0)
}

// greedyLazySeeded is the CELF engine with an optional warm start. A nil
// seeds reproduces the cold engine exactly: every ground element is
// evaluated once against the empty placement (plain greedy's first
// round) before selection begins. A non-nil seeds must hold one entry
// per ground element carrying its exact round-0 marginal gain
// (f({e}) − f(∅)), stamped round 0; the engine then skips the initial
// sweep and counts only preEvals evaluations toward round 0 — the
// number of seed gains the caller had to compute fresh rather than
// serve from a cache. Because a correct seed set is value-identical to
// what the cold sweep would produce, the selection sequence — and thus
// the placement, order, and value — is bit-for-bit the cold engine's.
func greedyLazySeeded(ctx context.Context, inst *Instance, obj Objective, workers int, progress ProgressFunc, seeds []lazyEntry, preEvals int) (*Result, error) {
	res := &Result{Placement: NewPlacement(inst.NumServices())}
	base := obj.newEvaluator(inst.NumNodes())
	baseVal := base.Value()
	placed := make([]bool, inst.NumServices())

	// refresh recomputes the current-round marginal gain of each entry,
	// fanning out across workers when the batch is large enough (Gain is
	// read-only, so the workers share base). Each recomputation is one
	// objective evaluation, counted exactly as in Greedy.
	refresh := func(ents []lazyEntry, round int) {
		if workers <= 1 || len(ents) == 1 {
			scoreEntries(inst, base, ents, round)
		} else {
			var wg sync.WaitGroup
			chunk := (len(ents) + workers - 1) / workers
			for lo := 0; lo < len(ents); lo += chunk {
				hi := lo + chunk
				if hi > len(ents) {
					hi = len(ents)
				}
				wg.Add(1)
				go func(part []lazyEntry) {
					defer wg.Done()
					scoreEntries(inst, base, part, round)
				}(ents[lo:hi])
			}
			wg.Wait()
		}
		res.Evaluations += len(ents)
	}

	var h lazyHeap
	if seeds == nil {
		// Initial sweep: every ground element evaluated once against the
		// empty placement — exactly the first round of plain greedy.
		h = make(lazyHeap, len(inst.elements))
		for e := range inst.elements {
			h[e] = lazyEntry{elem: e}
		}
		refresh(h, 0)
	} else {
		if len(seeds) != len(inst.elements) {
			return nil, fmt.Errorf("placement: %d warm-start seeds for %d ground elements", len(seeds), len(inst.elements))
		}
		h = lazyHeap(seeds)
		res.Evaluations += preEvals
	}
	h.init()

	var batch []lazyEntry
	for iter := 0; iter < inst.NumServices(); iter++ {
		if ctx.Err() != nil {
			return nil, errCanceled(ctx, iter)
		}
		roundStart := time.Now()
		evalsBefore := res.Evaluations
		if iter == 0 {
			// The initial ground-set sweep is plain greedy's first round;
			// attribute its evaluations to round 0.
			evalsBefore = 0
		}
		pops := 0
		chosen, found := lazyEntry{}, false
		for len(h) > 0 || len(batch) > 0 {
			if len(h) == 0 {
				// The heap drained into the pending batch (the remaining
				// entries were all retired): flush and keep going.
				refresh(batch, iter)
				for _, e := range batch {
					h.push(e)
				}
				batch = batch[:0]
				continue
			}
			top := h.pop()
			pops++
			if placed[inst.elements[top.elem].service] {
				continue // service already placed; retire the entry
			}
			if top.round == iter && len(batch) == 0 {
				// A fresh gain is exact, and every entry below carries a
				// cached upper bound ≤ this gain, so no remaining element
				// can beat it: select. Equal-gain elements with a smaller
				// index would have been popped (and refreshed) first, so
				// the tie-break matches Greedy.
				chosen, found = top, true
				break
			}
			if top.round != iter {
				batch = append(batch, top)
				// Sequentially the batch flushes after every entry; in
				// parallel mode consecutive stale tops share one fan-out.
				if len(batch) < workers && len(h) > 0 {
					continue
				}
			} else {
				// Fresh, but entries batched before it had cached gains
				// above its: refresh them before deciding the round.
				h.push(top)
			}
			refresh(batch, iter)
			for _, e := range batch {
				h.push(e)
			}
			batch = batch[:0]
		}
		if !found {
			return nil, fmt.Errorf("placement: no feasible placement at iteration %d", iter)
		}
		el := &inst.elements[chosen.elem]
		base.Add(el.evalPaths)
		prevVal := baseVal
		baseVal = base.Value()
		placed[el.service] = true
		res.Placement.Hosts[el.service] = el.host
		res.Order = append(res.Order, el.service)
		progress.emit(Round{
			Index:       iter,
			Service:     el.service,
			Host:        el.host,
			Gain:        baseVal - prevVal,
			Candidates:  pops,
			Evaluations: res.Evaluations - evalsBefore,
			Duration:    time.Since(roundStart),
		})
	}
	res.Value = baseVal
	return res, nil
}

// scoreEntries sets each entry's gain to its marginal gain over base,
// stamped with round. A plain function rather than a closure, so that
// the sequential refresh, called once per stale heap top, allocates
// nothing.
func scoreEntries(inst *Instance, base evaluator, ents []lazyEntry, round int) {
	for i := range ents {
		ents[i].gain = base.Gain(inst.elements[ents[i].elem].evalPaths)
		ents[i].round = round
	}
}
