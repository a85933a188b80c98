package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/system"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go under -race, which changes what
// escapes and so the allocation counts.
var raceEnabled bool

// postRun sends body to h's /run and returns the recorded reply.
func postRun(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
	return rec
}

// runBody is what writeJSON writes for resp.
func runBody(resp *RunResponse) string {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.String()
}

// mustJSON marshals a request the way service.Client does.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// seeded is scheme's default configuration with seed, as benchmark and
// client requests send it.
func seeded(sch system.Scheme, seed uint64) *system.Config {
	cfg := system.DefaultConfig(sch)
	cfg.Seed = seed
	return &cfg
}

// TestRunHitBodyIsByteIdentical pins a /run cache hit, served from the
// entry's rendered body, to the bytes writeJSON(&RunResponse{...}) writes,
// and the leader's miss body to today's encoding, for jobs with and without
// a config. Both the first hit (memo miss, body rendered) and the repeat
// (memo hit) are checked, and every body decodes to the Results of a direct
// system.Run.
func TestRunHitBodyIsByteIdentical(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	for _, req := range []RunRequest{
		{Workload: "mac", Scheme: "ARF-tid", Scale: "tiny"},
		{Workload: "reduce", Scheme: "HMC", Scale: "tiny", Config: seeded(system.SchemeHMC, 42)},
		{Workload: "backprop", Scheme: "DRAM", Scale: "tiny", Config: seeded(system.SchemeDRAM, 42)},
		{Workload: "rand_mac", Scheme: "ARF-addr", Scale: "tiny", Config: seeded(system.SchemeARFaddr, 42)},
	} {
		sch, err := system.ParseScheme(req.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		cfg := system.DefaultConfig(sch)
		if req.Config != nil {
			cfg = *req.Config
		}
		sys, err := system.New(cfg, req.Workload, workload.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		reply := RunResponse{Workload: req.Workload, Scheme: req.Scheme, Scale: req.Scale, ConfigHash: cfg.Hash(), Results: want}
		wantMiss := runBody(&reply)
		reply.CacheHit = true
		wantHit := runBody(&reply)

		body := mustJSON(t, req)
		for i, wantBody := range []string{wantMiss, wantHit, wantHit} {
			rec := postRun(h, body)
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s/%s request %d: HTTP %d, Content-Type %q", req.Scheme, req.Workload, i, rec.Code, rec.Header().Get("Content-Type"))
			}
			if got := rec.Body.String(); got != wantBody {
				t.Errorf("%s/%s request %d: body differs from writeJSON's (%d vs %d bytes)", req.Scheme, req.Workload, i, len(got), len(wantBody))
			}
			var got RunResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results, want) {
				t.Errorf("%s/%s request %d: results differ from a direct run", req.Scheme, req.Workload, i)
			}
		}
	}
}

// TestRunRequestMemo checks what the /run request memo remembers: any
// encoding of a cached job hits with the same body, a config that differs
// only in Seed is a new job, the memo keeps one encoding per cached result,
// and invalid requests are never remembered.
func TestRunRequestMemo(t *testing.T) {
	s := New(Options{Workers: 1})
	h := s.Handler()
	reply := func(body string, wantHit bool) string {
		t.Helper()
		rec := postRun(h, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d for %q: %s", rec.Code, body, rec.Body)
		}
		var resp RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit != wantHit {
			t.Fatalf("cache_hit %v for %q, want %v", resp.CacheHit, body, wantHit)
		}
		return rec.Body.String()
	}

	// Two encodings of one job: reordered fields, extra whitespace.
	reply(`{"workload":"mac","scheme":"ARF-tid","scale":"tiny"}`, false)
	encA := `{"scale":"tiny","workload":"mac","scheme":"ARF-tid"}`
	encB := " {\n  \"scheme\" : \"ARF-tid\",\t\"scale\":\"tiny\",  \"workload\":\"mac\" }\n"
	a := reply(encA, true)
	if len(s.memo.byBody) != 1 {
		t.Fatalf("memo holds %d encodings after one hit, want 1", len(s.memo.byBody))
	}
	if b := reply(encB, true); b != a {
		t.Error("two encodings of one job got different hit bodies")
	}
	if s.memo.get([]byte(encA)) != nil {
		t.Error("a new encoding of the job did not replace the old one")
	}
	if b := reply(encB, true); b != a {
		t.Error("a remembered encoding got a different hit body")
	}

	// A config that differs only in Seed is another job: it misses and
	// starts exactly one simulation, then hits.
	seed7 := mustJSON(t, RunRequest{Workload: "mac", Scheme: "ARF-tid", Scale: "tiny", Config: seeded(system.SchemeARFtid, 7)})
	reply(seed7, false)
	reply(seed7, true)
	started := s.Stats().SimsStarted
	seed8 := mustJSON(t, RunRequest{Workload: "mac", Scheme: "ARF-tid", Scale: "tiny", Config: seeded(system.SchemeARFtid, 8)})
	reply(seed8, false)
	if n := s.Stats().SimsStarted - started; n != 1 {
		t.Errorf("a request differing only in Config.Seed started %d simulations, want 1", n)
	}
	if n := len(s.memo.byBody); n != 2 {
		t.Errorf("memo holds %d encodings after a miss, want the 2 that hit", n)
	}
	reply(seed8, true)

	// Many encodings of one cached job leave one entry per cached result.
	for i := 0; i < 40; i++ {
		reply(strings.Repeat(" ", i)+seed7, true)
	}
	if n, c := len(s.memo.byBody), s.cache.len(); n != 3 || n > c {
		t.Errorf("memo holds %d encodings for 3 hit jobs and %d cached results", n, c)
	}

	// Invalid requests get the same 400 each time and are never remembered.
	started = s.Stats().SimsStarted
	threads := system.DefaultConfig(system.SchemeHMC)
	threads.Threads = -1
	for _, body := range []string{
		`{"workload":"no_such_benchmark","scheme":"HMC","scale":"tiny"}`,
		`{"workload":"mac","scheme":"HMC","scale":"enormous"}`,
		`{"workload":"mac","scheme":"NoSuchScheme","scale":"tiny"}`,
		mustJSON(t, RunRequest{Workload: "mac", Scheme: "HMC", Scale: "tiny", Config: &threads}),
		`{"workload":`,
	} {
		first := postRun(h, body)
		second := postRun(h, body)
		if first.Code != http.StatusBadRequest || second.Code != http.StatusBadRequest {
			t.Errorf("%q: HTTP %d then %d, want 400 both times", body, first.Code, second.Code)
		}
		if first.Body.String() != second.Body.String() {
			t.Errorf("%q: error changed on repeat: %s then %s", body, first.Body, second.Body)
		}
	}
	if n := len(s.memo.byBody); n != 3 {
		t.Errorf("memo holds %d encodings after invalid requests, want 3", n)
	}
	if n := s.Stats().SimsStarted - started; n != 0 {
		t.Errorf("invalid requests started %d simulations", n)
	}
}

// TestRunValueBeforeOversizedTail checks a body whose JSON value ends
// within maxRequestBytes but whose trailing bytes run past it: decoding
// stops at the end of the value, so it is served, as when the handler
// decoded straight from the body, and a read that failed is never
// remembered.
func TestRunValueBeforeOversizedTail(t *testing.T) {
	s := New(Options{Workers: 1})
	h := s.Handler()
	body := `{"workload":"mac","scheme":"HMC","scale":"tiny"}` + strings.Repeat(" ", maxRequestBytes)
	for i, wantHit := range []bool{false, true} {
		rec := postRun(h, body)
		var resp RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("request %d: HTTP %d (%v)", i, rec.Code, err)
		}
		if resp.CacheHit != wantHit {
			t.Errorf("request %d: cache_hit %v, want %v", i, resp.CacheHit, wantHit)
		}
	}
	if n := len(s.memo.byBody); n != 0 {
		t.Errorf("memo holds %d encodings of a body past the limit", n)
	}
}

// maxCachedRunAllocs bounds the allocations of one cached /run round trip
// through Handler(), counting the test's own request and recorder: 24
// measured, against 88 when a hit decoded, hashed and re-encoded.
const maxCachedRunAllocs = 40

// TestCachedRunAllocations pins a cached /run to a lookup.
func TestCachedRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes escapes")
	}
	s := New(Options{Workers: 1})
	h := s.Handler()
	body := mustJSON(t, RunRequest{Workload: "mac", Scheme: "ARF-tid", Scale: "tiny", Config: seeded(system.SchemeARFtid, 42)})
	postRun(h, body) // leader
	postRun(h, body) // first hit: remembered and rendered
	allocs := testing.AllocsPerRun(50, func() {
		if rec := postRun(h, body); rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d", rec.Code)
		}
	})
	if allocs > maxCachedRunAllocs {
		t.Errorf("cached /run: %.0f allocs, ceiling %d", allocs, maxCachedRunAllocs)
	}
}
