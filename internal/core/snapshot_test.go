package core

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/network"
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

// TestStateRejectsBadFlows feeds a decoding State ARE and coordinator
// sections whose live flows hold values no run produces: a parent or
// child node outside the memory network (it would address a gather packet
// to no router) or an opcode past the ISA's last. Decode must fail with an
// error naming the value.
func TestStateRejectsBadFlows(t *testing.T) {
	are := func(corrupt func(fe *FlowEntry)) error {
		src := NewEngine(3, 3, DefaultEngineConfig(), newMockCube(t, 3))
		fe := src.Flows.Register(network.FlowKey{Flow: 7}, isa.OpAdd, 16)
		fe.AddChild(2)
		corrupt(fe)
		return roundTrip(src, NewEngine(3, 3, DefaultEngineConfig(), newMockCube(t, 3)))
	}
	coord := func(op isa.ALUOp) error {
		src, _, _ := newCoord(PolicyStatic)
		src.flows[0x40] = &coordFlow{op: op, target: 0x40, trees: make([]bool, len(src.ports))}
		dst, _, _ := newCoord(PolicyStatic)
		return roundTrip(src, dst)
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"parent", are(func(fe *FlowEntry) { fe.Parent = 64 }), "flow parent node 64 out of range"},
		{"negative parent", are(func(fe *FlowEntry) { fe.Parent = -1 }), "flow parent node -1 out of range"},
		{"child", are(func(fe *FlowEntry) { fe.Children[0] = 64 }), "flow child node 64 out of range"},
		{"opcode", are(func(fe *FlowEntry) { fe.Opcode = isa.OpConstAssign + 1 }), "flow opcode 9 out of range"},
		{"coordinator op", coord(isa.OpConstAssign + 1), "op 9 out of range"},
	}
	for _, c := range cases {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: decode error = %v, want one naming %q", c.name, c.err, c.want)
		}
	}
	// The same sections with values a run produces restore cleanly.
	if err := are(func(*FlowEntry) {}); err != nil {
		t.Errorf("valid ARE section: %v", err)
	}
	if err := coord(isa.OpAdd); err != nil {
		t.Errorf("valid coordinator section: %v", err)
	}
}
