package cache

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// roundTrip encodes src's section and decodes it into dst.
func roundTrip(src, dst interface{ State(*sim.Stream) }) error {
	e := sim.NewEncoder(nil)
	src.State(e)
	d := sim.NewDecoder(e.Bytes())
	dst.State(d)
	return d.Err()
}

// TestStateRejectsBadLines feeds a decoding State cache sections whose
// lines hold values no coherence transition produces: an L1 state above
// Modified, an L2 owner or sharer bit naming a core the directory does not
// track (the bank would post a message to a tile that does not exist).
// Decode must fail with an error naming the value.
func TestStateRejectsBadLines(t *testing.T) {
	cfg1 := DefaultL1Config()
	cfg1.SizeBytes = 1 << 10
	cfg2 := DefaultL2Config()
	cfg2.BankSizeBytes = 4 << 10
	cfg2.Ways = 4
	newL1 := func() *L1 { return NewL1(0, cfg1, nil, nil, nil, nil) }
	newL2 := func() *L2Bank { return NewL2Bank(0, 16, cfg2, nil, nil) }
	l1 := func(state lineState) error {
		src := newL1()
		src.lines[1][2].state = state
		return roundTrip(src, newL1())
	}
	l2 := func(owner int, sharers uint64) error {
		src := newL2()
		ln := &src.lines[1][2]
		ln.valid, ln.owner, ln.sharers = true, owner, sharers
		return roundTrip(src, newL2())
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"l1 state", l1(stMod + 1), "l1 0 line state 4 out of range"},
		{"l2 owner", l2(16, 0), "l2 0 line owner 16 out of range"},
		{"l2 negative owner", l2(-2, 0), "l2 0 line owner -2 out of range"},
		{"l2 sharers", l2(-1, 1<<16), "l2 0 line sharers 0x10000"},
	}
	for _, c := range cases {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: decode error = %v, want one naming %q", c.name, c.err, c.want)
		}
	}
	// The largest values a 16-core machine produces restore cleanly.
	if err := l1(stMod); err != nil {
		t.Errorf("valid l1 section: %v", err)
	}
	if err := l2(15, 1<<15); err != nil {
		t.Errorf("valid l2 section: %v", err)
	}
}
