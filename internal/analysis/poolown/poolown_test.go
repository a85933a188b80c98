package poolown_test

import (
	"testing"

	"repro/internal/analysis/antest"
	"repro/internal/analysis/poolown"
)

// TestPoolFixture walks the pooled-packet lifecycle violations against real
// network.Pool types: double release (the historical bug class), use after
// release, leak on an early return, the refused-Inject leak (also for a
// packet acquired through cache.PacketFor), plus the clean shapes
// (conditional transfer, stash, handoff, defer, exemption) that must stay
// silent.
func TestPoolFixture(t *testing.T) {
	antest.Run(t, "testdata/pool", poolown.Analyzer)
}
