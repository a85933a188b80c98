package system

import (
	"strings"
	"testing"
)

func TestDefaultConfigValidates(t *testing.T) {
	for _, sch := range append(Schemes(), SchemeARFtidAdaptive, SchemeARFea) {
		cfg := DefaultConfig(sch)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: default config invalid: %v", sch, err)
		}
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero flows", func(c *Config) { c.ARE.MaxFlows = 0 }, "MaxFlows"},
		{"negative operand bufs", func(c *Config) { c.ARE.OperandBufs = -1 }, "OperandBufs"},
		{"zero link bw", func(c *Config) { c.MemNet.LinkBandwidth = 0 }, "LinkBandwidth"},
		{"zero threads", func(c *Config) { c.Threads = 0 }, "Threads"},
		{"zero max cycles", func(c *Config) { c.MaxCycles = 0 }, "MaxCycles"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(SchemeARFtid)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: invalid config accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

func TestConfigHashStability(t *testing.T) {
	a := DefaultConfig(SchemeARFtid)
	b := DefaultConfig(SchemeARFtid)
	if a.Hash() != b.Hash() {
		t.Fatal("identical configs hash differently")
	}
	b.ARE.MaxFlows = 8
	if a.Hash() == b.Hash() {
		t.Fatal("mutated config shares hash with default")
	}
	c := DefaultConfig(SchemeHMC)
	if a.Hash() == c.Hash() {
		t.Fatal("different schemes share a hash")
	}
	if len(a.Hash()) != 16 {
		t.Fatalf("hash %q is not 16 hex digits", a.Hash())
	}
}

// v1ConfigHashes records Config.Hash() of DefaultConfig(scheme) as computed
// by the schema that still carried the dead network EjectPerCycle knob
// (captured immediately before its removal). Old cached results are keyed
// by these strings; the current schema must never reproduce them for the
// same logical configuration, or a stale cache entry could satisfy a new
// request.
var v1ConfigHashes = map[Scheme]string{
	SchemeDRAM:           "0ae7404317fc96ba",
	SchemeHMC:            "99a22cc2eddc34cb",
	SchemeART:            "0681a0f291a911a0",
	SchemeARFtid:         "ad1617d4bc073071",
	SchemeARFaddr:        "901165aa0cbb964e",
	SchemeARFtidAdaptive: "ffa61a612b89852f",
	SchemeARFea:          "588505d91deeca34",
}

// v2ConfigHashes records Config.Hash() of DefaultConfig(scheme) under the
// cfg/v2 schema (captured immediately before the sharded-kernel
// Shards/Workers fields were added).
var v2ConfigHashes = map[Scheme]string{
	SchemeDRAM:           "f79013d4ba39abed",
	SchemeHMC:            "a1daa1997fde10d4",
	SchemeART:            "3a9a0191849e4b77",
	SchemeARFtid:         "e065642d161113ce",
	SchemeARFaddr:        "41981c73c3f72cd1",
	SchemeARFtidAdaptive: "3ea0ba2b3c81f958",
	SchemeARFea:          "b88ab93de8b3155b",
}

// v3ConfigHashes records Config.Hash() of DefaultConfig(scheme) under the
// cfg/v3 schema (captured immediately before Hash moved from whole-struct
// %#v formatting to explicit field enumeration, the form the hashcov
// analyzer can prove complete).
var v3ConfigHashes = map[Scheme]string{
	SchemeDRAM:           "dbbfc17d1812ff00",
	SchemeHMC:            "6299e99ff69289e7",
	SchemeART:            "47f6a8b6d49cbeae",
	SchemeARFtid:         "59a5b0be4149884d",
	SchemeARFaddr:        "b31fc5fe3821b5b4",
	SchemeARFtidAdaptive: "65e9a231d5bf8f5b",
	SchemeARFea:          "38fcca9ba075b782",
}

// TestConfigHashDistinctFromOldSchemas pins the schema-versioning contract:
// after each schema change, otherwise-equal default configs hash
// differently from their ancestors, so stale cached results can never
// satisfy a new request.
func TestConfigHashDistinctFromOldSchemas(t *testing.T) {
	for _, s := range AllSchemes() {
		cfg := DefaultConfig(s)
		got := cfg.Hash()
		if old, ok := v1ConfigHashes[s]; !ok {
			t.Fatalf("missing v1 hash for %s", s)
		} else if got == old {
			t.Errorf("%s: hash %s collides with the v1 schema hash", s, got)
		}
		if old, ok := v2ConfigHashes[s]; !ok {
			t.Fatalf("missing v2 hash for %s", s)
		} else if got == old {
			t.Errorf("%s: hash %s collides with the v2 schema hash", s, got)
		}
		if old, ok := v3ConfigHashes[s]; !ok {
			t.Fatalf("missing v3 hash for %s", s)
		} else if got == old {
			t.Errorf("%s: hash %s collides with the v3 schema hash", s, got)
		}
	}
}

// v4ConfigHashes records Config.Hash() of DefaultConfig(scheme) under the
// current cfg/v4 schema, captured while Config still carried the
// Shards/Workers kernel knobs (which Hash never rendered). Removing those
// fields must not move any result-cache, sweep or store key.
var v4ConfigHashes = map[Scheme]string{
	SchemeDRAM:           "6d62f9fdc68e9b27",
	SchemeHMC:            "548e27c3f8b7ccde",
	SchemeART:            "035bc80be1b41375",
	SchemeARFtid:         "09ca665c2e9e39ac",
	SchemeARFaddr:        "79cdfe68e33da7f3",
	SchemeARFtidAdaptive: "23d59b80207ccf0a",
	SchemeARFea:          "6eb0ae0b6e4a65a1",
}

// TestConfigHashPinned pins the cfg/v4 hash of every scheme's default
// configuration.
func TestConfigHashPinned(t *testing.T) {
	for _, s := range AllSchemes() {
		cfg := DefaultConfig(s)
		if got, want := cfg.Hash(), v4ConfigHashes[s]; got != want {
			t.Errorf("%s: Hash() = %s, want %s", s, got, want)
		}
	}
}
