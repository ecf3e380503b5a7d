package serve

import (
	"context"
	"time"

	"repro/internal/pipeline"
)

// streamGrace bounds how long a RunStream send waits on a stalled
// consumer before treating the stream as abandoned and dropping the
// event — the guarantee that an unread channel can never strand a run
// (or its admission slot), cancellable context or not.
const streamGrace = 5 * time.Second

// EventKind classifies a RunStream event.
type EventKind int

const (
	// EventRunStarted fires once when the run clears admission and
	// begins executing.
	EventRunStarted EventKind = iota
	// EventKernelStart fires before each kernel.
	EventKernelStart
	// EventKernelEnd fires after each kernel, with its KernelResult.
	EventKernelEnd
	// EventIteration fires after each kernel-3 PageRank iteration.
	EventIteration
	// EventRunEnd fires exactly once, last, with the run's Result or
	// error; the channel closes after it.
	EventRunEnd
	// EventCheckpointSaved fires after the distributed kernel 3 commits
	// a checkpoint epoch; Iteration carries the epoch's completed-
	// iteration count.
	EventCheckpointSaved
	// EventCheckpointRestored fires when a resuming kernel 3 loads a
	// complete epoch before iterating; Iteration carries the epoch's
	// completed-iteration count.
	EventCheckpointRestored
	// EventCacheHit fires when the matrix cache serves the kernel-2
	// matrix; Kernel is K2Filter, and kernels 0–2 are skipped.
	EventCacheHit
	// EventCacheMiss fires when the consulted cache held no matrix;
	// this run computes and deposits it.
	EventCacheMiss
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventRunStarted:
		return "run-started"
	case EventKernelStart:
		return "kernel-start"
	case EventKernelEnd:
		return "kernel-end"
	case EventIteration:
		return "iteration"
	case EventRunEnd:
		return "run-end"
	case EventCheckpointSaved:
		return "checkpoint-saved"
	case EventCheckpointRestored:
		return "checkpoint-restored"
	case EventCacheHit:
		return "cache-hit"
	case EventCacheMiss:
		return "cache-miss"
	default:
		return "event?"
	}
}

// Event is one observation of a streaming run.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Kernel is the stage (kernel and iteration events).
	Kernel pipeline.Kernel
	// Iteration is the 1-based kernel-3 iteration (EventIteration only).
	Iteration int
	// KernelResult is the completed stage's record (EventKernelEnd only).
	KernelResult *pipeline.KernelResult
	// Result is the completed run's result (EventRunEnd, on success).
	Result *pipeline.Result
	// Err is the run's failure (EventRunEnd, on error) — including
	// ctx's error when the run was cancelled.
	Err error
}

// RunStream executes one pipeline like Run but returns immediately with
// a channel of progress events: EventRunStarted when the run clears
// admission, per-kernel boundaries, per-iteration kernel-3 ticks, and a
// final EventRunEnd carrying the Result or error, after which the
// channel closes.  This replaces the "wait for the whole Result" model
// for callers that render progress or multiplex runs.
//
// Events are delivered in execution order on a buffered channel and the
// consumer should drain it: a send that cannot complete within the
// grace period (or after ctx is cancelled, which also aborts the run)
// is dropped, so an abandoned stream never strands the run's goroutine
// or its admission slot — under any context.  The terminal EventRunEnd
// is always delivered to a draining consumer (only a consumer that
// stopped reading forfeits it) and the channel always closes.  Passing
// WithProgress here is not meaningful (the stream is the progress hook
// and overrides it).
func (s *Service) RunStream(ctx context.Context, cfg pipeline.Config, opts ...RunOption) <-chan Event {
	ch := make(chan Event, 16)
	// emit delivers one mid-run event: buffered fast path, then a
	// bounded wait.  The grace timer is what keeps an abandoned stream
	// from stranding the run and its admission slot even under a
	// non-cancellable context — a consumer stalled past the grace
	// period is treated as gone and forfeits events.
	emit := func(ev Event) {
		select {
		case ch <- ev: // a draining consumer never loses events
			return
		default:
		}
		t := time.NewTimer(streamGrace)
		defer t.Stop()
		select {
		case ch <- ev:
		case <-ctx.Done():
		case <-t.C:
		}
	}
	// emitFinal delivers EventRunEnd.  The run is already over, so ctx
	// (likely cancelled, if the run was) must not race the delivery: a
	// consumer still draining gets the event within its next receive;
	// only an abandoned stream drops it, after the grace period, so the
	// goroutine never leaks.
	emitFinal := func(ev Event) {
		select {
		case ch <- ev:
			return
		default:
		}
		t := time.NewTimer(streamGrace)
		defer t.Stop()
		select {
		case ch <- ev:
		case <-t.C:
		}
	}
	//prlint:allow determinism -- stream pump, not kernel work: it relays events and the terminal Result; delivery timing never influences what the run computes
	go func() {
		defer close(ch)
		all := make([]RunOption, 0, len(opts)+2)
		all = append(all, opts...)
		all = append(all,
			withStarted(func() { emit(Event{Kind: EventRunStarted}) }),
			WithProgress(func(pe pipeline.Event) {
				ev := Event{Kernel: pe.Kernel, Iteration: pe.Iteration, KernelResult: pe.KernelResult}
				switch pe.Kind {
				case pipeline.EventKernelStart:
					ev.Kind = EventKernelStart
				case pipeline.EventKernelEnd:
					ev.Kind = EventKernelEnd
				case pipeline.EventIteration:
					ev.Kind = EventIteration
				case pipeline.EventCheckpointSaved:
					ev.Kind = EventCheckpointSaved
				case pipeline.EventCheckpointRestored:
					ev.Kind = EventCheckpointRestored
				case pipeline.EventCacheHit:
					ev.Kind = EventCacheHit
				case pipeline.EventCacheMiss:
					ev.Kind = EventCacheMiss
				default:
					return
				}
				emit(ev)
			}))
		res, err := s.Run(ctx, cfg, all...)
		emitFinal(Event{Kind: EventRunEnd, Result: res, Err: err})
	}()
	return ch
}
