// Checkpointrestart: the paper's Figure 2 lists create / stop / checkpoint
// / restart among the administrative operations big-data systems must
// support.  This example runs the distributed pipeline through a Service
// that checkpoints kernel 3 to a directory every 7 iterations, stops the
// 20-iteration PageRank with a rank failure right after the epoch at
// iteration 7 is committed, then "restarts the system": a fresh Service on
// the same directory resumes the run under the same key from that epoch,
// and the result is checked bit for bit against an uninterrupted run.
//
//	go run ./examples/checkpointrestart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/core"
)

func main() {
	dir, err := os.MkdirTemp("", "prpipeline-checkpoint-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := core.NewDirFS(dir)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	cfg := core.Config{Scale: 12, Seed: 4, Variant: "dist", KeepRank: true,
		Checkpoint: core.CheckpointSpec{Every: 7}}

	// First process: rank 1 fails at the boundary after iteration 7, once
	// that epoch is on disk.
	stopped := cfg
	stopped.Fault = &core.FaultPlan{KillRank: 1, AtIteration: 7}
	svc := core.NewService(core.WithCheckpointStorage(store))
	_, err = svc.Run(ctx, stopped, core.WithResumeKey("run42"), core.WithProgress(func(ev core.PipelineEvent) {
		if ev.Kind == core.EventCheckpointSaved {
			fmt.Printf("epoch committed after iteration %d\n", ev.Iteration)
		}
	}))
	svc.Close()
	if !errors.Is(err, core.ErrFaultInjected) {
		log.Fatalf("stopped run: err = %v, want the injected failure", err)
	}
	fmt.Println("run stopped by the injected rank failure")

	// "Restart": a fresh Service on the same directory continues the key.
	svc = core.NewService(core.WithCheckpointStorage(store))
	defer svc.Close()
	resumed, err := svc.Run(ctx, cfg, core.WithResumeKey("run42"))
	if err != nil {
		log.Fatal(err)
	}
	if ck := resumed.Checkpoint; ck == nil || !ck.Resumed || ck.ResumedFrom != 7 {
		log.Fatalf("restarted run did not resume from the epoch at 7: %+v", ck)
	}
	fmt.Printf("fresh service resumed from the epoch at %d and ran to %d iterations\n",
		resumed.Checkpoint.ResumedFrom, resumed.RankIterations)

	// Ground truth: an uninterrupted run, no checkpoints.
	full, err := core.RunOnce(ctx, core.Config{Scale: 12, Seed: 4, Variant: "dist", KeepRank: true})
	if err != nil {
		log.Fatal(err)
	}
	if len(full.Rank) != len(resumed.Rank) {
		log.Fatalf("rank lengths %d vs %d", len(resumed.Rank), len(full.Rank))
	}
	for i := range full.Rank {
		if math.Float64bits(full.Rank[i]) != math.Float64bits(resumed.Rank[i]) {
			log.Fatalf("resumed run diverged at vertex %d: %v vs %v", i, resumed.Rank[i], full.Rank[i])
		}
	}
	fmt.Println("resumed rank vector is bit-identical to the uninterrupted 20-iteration run.")
}
