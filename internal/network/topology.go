package network

import "fmt"

// Topology describes node connectivity and deterministic minimal routing.
// Nodes are numbered 0..Nodes()-1; some nodes are fabric routers (cubes,
// NoC tiles) and some are edge endpoints (HMC controllers) attached by a
// single link to a host router.
type Topology interface {
	// Nodes is the total node count including edge endpoints.
	Nodes() int
	// Ports returns the number of link ports on node n.
	Ports(n int) int
	// Neighbor returns the peer node and peer port reached from node n's
	// port p, or ok=false for an unused port.
	Neighbor(n, p int) (peer, peerPort int, ok bool)
	// Route returns the output port at cur on a minimal path to dst. It
	// panics if cur == dst (the caller should have ejected the packet).
	Route(cur, dst int) int
	// HopClass returns the virtual-channel class (0 or 1) a packet
	// travelling cur→dst must use, for deadlock-free minimal routing.
	HopClass(cur, dst int) int
}

// PathLen walks the topology's route from src to dst and returns the hop
// count. It is used by tests and by the analytical energy model.
func PathLen(t Topology, src, dst int) int {
	hops := 0
	for cur := src; cur != dst; {
		p := t.Route(cur, dst)
		next, _, ok := t.Neighbor(cur, p)
		if !ok {
			panic(fmt.Sprintf("network: route from %d to %d via dead port %d", cur, dst, p))
		}
		cur = next
		hops++
		if hops > t.Nodes()+2 {
			panic(fmt.Sprintf("network: routing loop from %d to %d", src, dst))
		}
	}
	return hops
}

// NextHop returns the neighbor reached by following the minimal route from
// cur toward dst.
func NextHop(t Topology, cur, dst int) int {
	p := t.Route(cur, dst)
	next, _, ok := t.Neighbor(cur, p)
	if !ok {
		panic(fmt.Sprintf("network: next hop from %d to %d via dead port %d", cur, dst, p))
	}
	return next
}

// Mesh is a k×k 2D mesh with dimension-order (XY) routing. Optional edge
// endpoints attach to designated tiles (used for both the host NoC and the
// mesh-memory-network ablation).
type Mesh struct {
	k      int
	attach []int // attach[i] = tile hosting edge endpoint i
}

// NewMesh creates a k×k mesh. attach lists the tiles that receive one edge
// endpoint each; endpoint i becomes node k*k+i.
func NewMesh(k int, attach []int) *Mesh {
	for _, t := range attach {
		if t < 0 || t >= k*k {
			panic("network: mesh attach tile out of range")
		}
	}
	return &Mesh{k: k, attach: append([]int(nil), attach...)}
}

// Tiles returns the number of fabric tiles (k*k).
func (m *Mesh) Tiles() int { return m.k * m.k }

// Nodes implements Topology.
func (m *Mesh) Nodes() int { return m.k*m.k + len(m.attach) }

// Mesh ports: 0=east, 1=west, 2=north, 3=south, 4=endpoint link.
const (
	meshEast = iota
	meshWest
	meshNorth
	meshSouth
	meshEdge
)

// Ports implements Topology.
func (m *Mesh) Ports(n int) int {
	if n >= m.Tiles() {
		return 1 // endpoint has a single link to its tile
	}
	return 5
}

// Neighbor implements Topology.
func (m *Mesh) Neighbor(n, p int) (int, int, bool) {
	if n >= m.Tiles() {
		if p != 0 {
			return 0, 0, false
		}
		return m.attach[n-m.Tiles()], meshEdge, true
	}
	x, y := n%m.k, n/m.k
	switch p {
	case meshEast:
		if x+1 < m.k {
			return n + 1, meshWest, true
		}
	case meshWest:
		if x > 0 {
			return n - 1, meshEast, true
		}
	case meshNorth:
		if y > 0 {
			return n - m.k, meshSouth, true
		}
	case meshSouth:
		if y+1 < m.k {
			return n + m.k, meshNorth, true
		}
	case meshEdge:
		for i, t := range m.attach {
			if t == n {
				return m.Tiles() + i, 0, true
			}
		}
	}
	return 0, 0, false
}

// Route implements Topology with XY dimension-order routing.
func (m *Mesh) Route(cur, dst int) int {
	if cur == dst {
		panic("network: Route called with cur == dst")
	}
	if cur >= m.Tiles() {
		return 0 // endpoint's only port
	}
	target := dst
	if dst >= m.Tiles() {
		target = m.attach[dst-m.Tiles()]
		if target == cur {
			return meshEdge
		}
	}
	cx, cy := cur%m.k, cur/m.k
	tx, ty := target%m.k, target/m.k
	switch {
	case tx > cx:
		return meshEast
	case tx < cx:
		return meshWest
	case ty < cy:
		return meshNorth
	default:
		return meshSouth
	}
}

// HopClass implements Topology. XY routing is deadlock free in one class.
func (m *Mesh) HopClass(cur, dst int) int { return 0 }

// MemNetCubes is the cube count of both memory-network topologies: the
// dragonfly below and the 4×4 mesh ablation.
const MemNetCubes = 16

// Dragonfly is the 16-cube dragonfly memory network of Table 4.1: 4 groups
// of 4 routers, fully connected within a group, one global link per router
// for routers 0..2 (router r of group g connects to group (g+r+1) mod 4).
// Edge endpoints (HMC controllers) attach one per group.
type Dragonfly struct {
	groups  int // number of groups (4)
	size    int // routers per group (4)
	attach  []int
	nRouter int
}

// NewDragonfly creates the 4×4 dragonfly. attach lists the cube each edge
// endpoint (controller) connects to; endpoint i becomes node 16+i.
func NewDragonfly(attach []int) *Dragonfly {
	d := &Dragonfly{groups: 4, size: 4, attach: append([]int(nil), attach...)}
	d.nRouter = d.groups * d.size
	for _, c := range d.attach {
		if c < 0 || c >= d.nRouter {
			panic("network: dragonfly attach cube out of range")
		}
	}
	return d
}

// Cubes returns the number of cube routers (16).
func (d *Dragonfly) Cubes() int { return d.nRouter }

// Nodes implements Topology.
func (d *Dragonfly) Nodes() int { return d.nRouter + len(d.attach) }

// Dragonfly ports on a cube: 0..2 local links (to the other three group
// members in increasing router order), 3 global link, 4 endpoint link.
const (
	dfGlobal = 3
	dfEdge   = 4
)

func (d *Dragonfly) group(n int) int  { return n / d.size }
func (d *Dragonfly) router(n int) int { return n % d.size }

// localPort returns the port index at router r (within its group) leading
// to router q of the same group.
func (d *Dragonfly) localPort(r, q int) int {
	if q < r {
		return q
	}
	return q - 1
}

// globalPeer returns the (group, router) on the other end of router r of
// group g's global link, or ok=false when the router has none (router 3).
func (d *Dragonfly) globalPeer(g, r int) (pg, pr int, ok bool) {
	if r >= d.groups-1 {
		return 0, 0, false
	}
	pg = (g + r + 1) % d.groups
	pr = ((g-pg-1)%d.groups + d.groups) % d.groups
	return pg, pr, true
}

// gatewayRouter returns the router in group g whose global link reaches
// group tg.
func (d *Dragonfly) gatewayRouter(g, tg int) int {
	return ((tg-g-1)%d.groups + d.groups) % d.groups
}

// Ports implements Topology.
func (d *Dragonfly) Ports(n int) int {
	if n >= d.nRouter {
		return 1
	}
	return 5
}

// Neighbor implements Topology.
func (d *Dragonfly) Neighbor(n, p int) (int, int, bool) {
	if n >= d.nRouter {
		if p != 0 {
			return 0, 0, false
		}
		cube := d.attach[n-d.nRouter]
		return cube, dfEdge, true
	}
	g, r := d.group(n), d.router(n)
	switch {
	case p >= 0 && p < d.size-1:
		q := p
		if q >= r {
			q++
		}
		peer := g*d.size + q
		return peer, d.localPort(q, r), true
	case p == dfGlobal:
		pg, pr, ok := d.globalPeer(g, r)
		if !ok {
			return 0, 0, false
		}
		return pg*d.size + pr, dfGlobal, true
	case p == dfEdge:
		for i, c := range d.attach {
			if c == n {
				return d.nRouter + i, 0, true
			}
		}
	}
	return 0, 0, false
}

// Route implements Topology: minimal local-global-local routing.
func (d *Dragonfly) Route(cur, dst int) int {
	if cur == dst {
		panic("network: Route called with cur == dst")
	}
	if cur >= d.nRouter {
		return 0
	}
	target := dst
	if dst >= d.nRouter {
		target = d.attach[dst-d.nRouter]
		if target == cur {
			return dfEdge
		}
	}
	g, r := d.group(cur), d.router(cur)
	tg, tr := d.group(target), d.router(target)
	if g == tg {
		return d.localPort(r, tr)
	}
	gw := d.gatewayRouter(g, tg)
	if r == gw {
		return dfGlobal
	}
	return d.localPort(r, gw)
}

// HopClass implements Topology: class 0 in the source group, class 1 once
// the packet is in the destination group (standard minimal dragonfly
// deadlock avoidance).
func (d *Dragonfly) HopClass(cur, dst int) int {
	target := dst
	if dst >= d.nRouter {
		target = d.attach[dst-d.nRouter]
	}
	c := cur
	if cur >= d.nRouter {
		c = d.attach[cur-d.nRouter]
	}
	if d.group(c) == d.group(target) {
		return 1
	}
	return 0
}
