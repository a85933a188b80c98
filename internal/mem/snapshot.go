package mem

import (
	"maps"
	"slices"

	"repro/internal/sim"
)

// State streams every touched page for checkpointing, sorted by page
// number so the bytes do not depend on map iteration order. Decoding
// replaces the store's contents.
func (s *Store) State(st *sim.Stream) {
	st.Tag("mem.store")
	var pns []uint64
	pages := s.pages
	if !st.Decoding() {
		pns = slices.Sorted(maps.Keys(pages))
	}
	n := len(pns)
	if st.Len(&n, st.Remaining()/PageSize+1, "store pages"); st.Decoding() {
		pns, pages = make([]uint64, n), make(map[uint64]*[PageSize]byte, n)
	}
	for i := 0; i < n && st.Err() == nil; i++ {
		st.U64(&pns[i])
		pg := pages[pns[i]]
		if st.Decoding() {
			if pg != nil {
				st.Fail("store page %#x decoded twice", pns[i])
				return
			}
			pg = new([PageSize]byte)
			pages[pns[i]] = pg
		}
		st.Raw(pg[:])
	}
	if st.Decoding() && st.Err() == nil {
		s.pages = pages
	}
}
