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

// EventKind classifies a RunStream event: the pipeline's kinds, which
// RunStream forwards as they are, plus EventRunStarted and EventRunEnd.
type EventKind = pipeline.EventKind

// The RunStream event kinds (see pipeline.EventKind).
const (
	EventRunStarted         = pipeline.EventRunStarted
	EventKernelStart        = pipeline.EventKernelStart
	EventKernelEnd          = pipeline.EventKernelEnd
	EventIteration          = pipeline.EventIteration
	EventRunEnd             = pipeline.EventRunEnd
	EventCheckpointSaved    = pipeline.EventCheckpointSaved
	EventCheckpointRestored = pipeline.EventCheckpointRestored
	EventCacheHit           = pipeline.EventCacheHit
	EventCacheMiss          = pipeline.EventCacheMiss
)

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
	// send delivers one event: buffered fast path, then a bounded wait
	// that stop cuts short.  The grace timer is what keeps an abandoned
	// stream from stranding the run and its admission slot even under a
	// non-cancellable context — a consumer stalled past the grace period
	// is treated as gone and forfeits events.
	send := func(ev Event, stop <-chan struct{}) {
		select {
		case ch <- ev: // a draining consumer never loses events
			return
		default:
		}
		t := time.NewTimer(streamGrace)
		defer t.Stop()
		select {
		case ch <- ev:
		case <-stop:
		case <-t.C:
		}
	}
	// A mid-run event gives up when ctx is done.  EventRunEnd comes after
	// the run, so ctx (likely cancelled, if the run was) must not race its
	// delivery: it waits on no stop, and a consumer still draining gets it
	// within its next receive.
	emit := func(ev Event) { send(ev, ctx.Done()) }
	//prlint:allow determinism -- stream pump, not kernel work: it relays events and the terminal Result; delivery timing never influences what the run computes
	go func() {
		defer close(ch)
		all := make([]RunOption, 0, len(opts)+2)
		all = append(all, opts...)
		all = append(all,
			withStarted(func() { emit(Event{Kind: EventRunStarted}) }),
			WithProgress(func(pe pipeline.Event) {
				emit(Event{Kind: pe.Kind, Kernel: pe.Kernel, Iteration: pe.Iteration, KernelResult: pe.KernelResult})
			}))
		res, err := s.Run(ctx, cfg, all...)
		send(Event{Kind: EventRunEnd, Result: res, Err: err}, nil)
	}()
	return ch
}
