package sweep

import (
	"context"
	"strings"
	"testing"
)

// TestPanickingJobReleasesSlots pins the budget slot-leak guard: a job
// function that panics must still release every slot it held, the panic
// must surface as an ordinary job error (fail-fast cancelling the pool),
// and the budget must stay fully usable afterwards. Run under -race in CI.
func TestPanickingJobReleasesSlots(t *testing.T) {
	b := NewBudget(2)
	err := RunJobsOn(context.Background(), 4, b, func(ctx context.Context, i int) error {
		if i == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want job-panicked error", err)
	}
	if got := b.InUse(); got != 0 {
		t.Fatalf("budget leaked %d slots after panic", got)
	}

	// The budget must still hand out its full capacity.
	acquireAll(t, b)
}
