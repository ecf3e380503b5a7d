package dist

// Unit tests for the run token that makes ExecSim the rank program run
// one rank at a time (chanFabric.turn): exclusivity, a reproducible
// interleaving, and a holder that cannot strand the ranks waiting for it.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunTokenOneRankAtATime(t *testing.T) {
	const p, rounds = 5, 20
	interleaving := func() []int {
		var running atomic.Int32
		var mu sync.Mutex
		var order []int
		_, err := spawnRanks(context.Background(), p, true, func(c *rankComm) rankOutcome {
			for i := 0; i < rounds; i++ {
				// Between two collectives a rank never yields: a second
				// rank inside this section means the token was shared.
				if running.Add(1) != 1 {
					return rankOutcome{err: errors.New("two ranks executing at once")}
				}
				mu.Lock()
				order = append(order, c.rank)
				mu.Unlock()
				running.Add(-1)
				if got := c.allReduceScalar(float64(c.rank)); got != p*(p-1)/2 {
					return rankOutcome{err: errors.New("wrong all-reduce result")}
				}
			}
			return rankOutcome{}
		})
		if err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := interleaving()
	if len(first) != p*rounds {
		t.Fatalf("%d sections ran, want %d", len(first), p*rounds)
	}
	for run := 0; run < 5; run++ {
		if again := interleaving(); !slices.Equal(first, again) {
			t.Fatalf("interleaving differs between identical runs:\n%v\n%v", first, again)
		}
	}
}

func TestRunTokenHolderCannotStrandPeers(t *testing.T) {
	boom := errors.New("boom")
	// Rank 0 starts with the token and fails without a single link
	// operation: ranks 1 and 2 are still waiting for their first turn.
	_, err := spawnRanks(context.Background(), 3, true, func(c *rankComm) rankOutcome {
		if c.rank == 0 {
			return rankOutcome{err: boom}
		}
		c.allReduceScalar(1)
		return rankOutcome{}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed holder: err = %v, want boom", err)
	}

	// Rank 1 is cancelled while it holds the token, mid-schedule: rank 0
	// is blocked in the all-reduce it yielded from, rank 2 never ran.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = spawnRanks(ctx, 3, true, func(c *rankComm) rankOutcome {
		if c.rank == 1 {
			cancel()
			return rankOutcome{err: ctx.Err()}
		}
		c.allReduceScalar(1)
		return rankOutcome{}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled holder: err = %v, want context.Canceled", err)
	}
}
