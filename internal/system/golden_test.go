package system_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/system"
	"repro/internal/workload"
)

// TestGoldenCycleCounts pins the simulated cycle and instruction counts of
// every scheme × every suite workload (the five benchmarks and four
// microbenchmarks) at ScaleTiny — a scheme-coverage golden matrix. The
// digest column pins everything else: the SHA-256 of the JSON-encoded
// Results, so a statistic the two counts miss (a stall counter, a latency
// breakdown, a heatmap cell) cannot drift unnoticed either. The
// backprop and mac rows were captured from the plain lockstep kernel before
// the idle-aware scheduler landed (PR 1); the remaining rows extend the
// matrix under the same kernel so a refactor can't silently perturb any
// scheme on any workload. Determinism is part of the machine definition:
// the idle-skip machinery, the fabric occupancy counters and every future
// performance change must keep these values bit-identical. Run() also
// verifies each workload's final memory state against a host-computed
// reference, so a pass covers functional correctness too.
//
// Refreshing these values is a machine-definition change: regenerate only
// when a PR deliberately alters simulated timing, and say so in DESIGN.md.
// Last regenerated for two timing-model changes (DESIGN.md "Simulation
// kernel: tick order"): 1-cycle credit turnaround on fabric links and
// next-cycle barrier release.
func TestGoldenCycleCounts(t *testing.T) {
	// The matrix must stay total: every scheme × every suite workload.
	wls := append(append([]string{}, workload.Benchmarks()...), workload.Microbenchmarks()...)
	if want := len(wls) * len(system.AllSchemes()); len(golden) != want {
		t.Fatalf("golden matrix has %d entries, want %d (schemes × suite workloads)", len(golden), want)
	}
	for _, g := range golden {
		g := g
		t.Run(g.workload+"/"+g.scheme.String(), func(t *testing.T) {
			t.Parallel()
			sys, err := system.New(system.DefaultConfig(g.scheme), g.workload, workload.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != g.cycles {
				t.Errorf("cycles = %d, want golden %d (simulated timing diverged from the lockstep kernel)", res.Cycles, g.cycles)
			}
			if res.Instructions != g.insts {
				t.Errorf("instructions = %d, want golden %d", res.Instructions, g.insts)
			}
			if d := resultsDigest(t, res); d != g.digest {
				t.Errorf("Results digest = %s, want golden %s (a statistic outside cycles and instructions changed)", d, g.digest)
			}
		})
	}
}

// resultsDigest is the golden digest column's hash of res: the SHA-256 of
// its JSON encoding, in hex.
func resultsDigest(t *testing.T, res *system.Results) string {
	t.Helper()
	b, err := json.Marshal(*res)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// golden is the matrix TestGoldenCycleCounts pins.
var golden = []struct {
	workload string
	scheme   system.Scheme
	cycles   uint64
	insts    uint64
	digest   string // SHA-256 of json.Marshal(Results), hex
}{
	{"backprop", system.SchemeDRAM, 3156, 5752, "4c87d1f8e9f660fa2ccb5620ba2d34aacb4799cb57d6f5a85fb9f2e8e69826e3"},
	{"backprop", system.SchemeHMC, 2706, 5752, "c2c14e772d4704f3d4df71233b4d754f562d1dab39ce13831cf05bc6a72f6970"},
	{"backprop", system.SchemeART, 4786, 4216, "6729c52764dd10286714412c3359af337c5e0d078ea739b7c1613e2fc3e01be5"},
	{"backprop", system.SchemeARFtid, 4332, 4216, "cc11558a75bf623bef9d126b530f464a4bb343155f0d27f873a1d4664742c174"},
	{"backprop", system.SchemeARFaddr, 4786, 4216, "6856b963f7128805206a80b6d21d9d1e65a26213ddb41f8d4916b41c4f2a6351"},
	{"backprop", system.SchemeARFtidAdaptive, 4332, 4216, "41522e9437ec911a006765e4c20c7e6c427fe949a430c00af4f6b90e13c1e164"},
	{"backprop", system.SchemeARFea, 4786, 4216, "c6df4db32cb5bc81fcbe5e996b735d5590817ffda1d75802fcea9fdf56c9fa30"},
	{"lud", system.SchemeDRAM, 2915, 5880, "acfb213b02a42f47faa1ae60b308c8cc36daa1fef9e5cc9b3c1c1597687b5909"},
	{"lud", system.SchemeHMC, 3691, 5880, "58befb7d5f4b32d0359fac617fed24f333d440c8f84304611915ac72a0dec131"},
	{"lud", system.SchemeART, 8227, 4344, "a367b912a1270dcb53b526afeea1aea6b3a4eed1921a1555a08316486303b3ee"},
	{"lud", system.SchemeARFtid, 8011, 4344, "10a4f906d73f78750a3319cb2e4f1524538360cfe33476d8d9e05a8e3e2cb6ad"},
	{"lud", system.SchemeARFaddr, 8227, 4344, "2b747746f4495c6824e58576d3d471d5ac7eeeedc9e56fa84c8e4df3371bd371"},
	{"lud", system.SchemeARFtidAdaptive, 8011, 4344, "d1c210c0ca391135c664345a8daf4536643ca1bae47e3eb6b48e0c4b937adcc4"},
	{"lud", system.SchemeARFea, 8227, 4344, "c5742072c8d126196149bb7476063cf1f9e798fff93d6238989045af351c9153"},
	{"pagerank", system.SchemeDRAM, 2575, 1804, "e50f052604d92f25888193d0d60d871323d96ea348c8b521068fd345214bf5d5"},
	{"pagerank", system.SchemeHMC, 1292, 1804, "453ddfefad93b756ecdb9353d65ba5df468ce0ceeb1162acf72c2b3bca70ccf7"},
	{"pagerank", system.SchemeART, 1683, 1740, "c26834aca485ad8ad05def1105c24aeb9b680a0e114b1fe6a25dd6025ba184d6"},
	{"pagerank", system.SchemeARFtid, 1681, 1740, "01d8b18fb2bf39df574155a5b244507e82eab5f81941dfa0384ad7b6a55e8bb0"},
	{"pagerank", system.SchemeARFaddr, 1683, 1740, "f9f13c441048b7168423ffc0ce45f249882486c8f11af9478afa6175ce1d2eea"},
	{"pagerank", system.SchemeARFtidAdaptive, 1681, 1740, "ac4b76771474d937fc70db4521952576268d98cd4935cb2d3a774785868c8c74"},
	{"pagerank", system.SchemeARFea, 1683, 1740, "e5fd9c7f52beb8aa8151f97410e14546fc9231ea43fe8a2d686a046b186954d9"},
	{"sgemm", system.SchemeDRAM, 2146, 8784, "0bc57c8a3e261e464d23d148c10c45b9d34c9d3f45ad6330b635ecf8810fe72f"},
	{"sgemm", system.SchemeHMC, 1053, 8784, "777f2cb670e74dca69c65626e0f34435dde852b9dc6fb2a4f43aa9bc70b5be1b"},
	{"sgemm", system.SchemeART, 12334, 3600, "1032d07aeffbdf36c096b15d197188034e5a6a241684660f745c4316c232174e"},
	{"sgemm", system.SchemeARFtid, 10730, 3600, "3597c3071b36223ec1ae2a20fd57ab5c4c2c2652cda0e36ecb68821171508371"},
	{"sgemm", system.SchemeARFaddr, 12334, 3600, "23a8b8548922bfcb2e907883f23269684dd0a2021036bba0497a9eb58881f705"},
	{"sgemm", system.SchemeARFtidAdaptive, 10730, 3600, "61387d4c95be80283e40dde0bcb61da7363a6d9a13afe496e0abd75992d22a4b"},
	{"sgemm", system.SchemeARFea, 12334, 3600, "3734e74087ed7f95afb84789126a9624cacb8c943e26990bd3c2753df025a841"},
	{"spmv", system.SchemeDRAM, 2922, 1880, "45c1ef0230dbd1632013b8214c237b4d4dabc389cfb2e4079f9d0e558d464773"},
	{"spmv", system.SchemeHMC, 948, 1880, "6ee6b7282df1a0e4bc4a5f9f08485094d7ff80557636fb73b981a307b276c5d6"},
	{"spmv", system.SchemeART, 3202, 956, "29e94b5fe0199456819db5d7427956613e5074ca912c37e3c2abd3e5a1f3377c"},
	{"spmv", system.SchemeARFtid, 2992, 956, "70c69de0f5db4fbe97c47498dc4a8588ec422b2738c49bc72232d2d55ec20a4c"},
	{"spmv", system.SchemeARFaddr, 3202, 956, "d08f196419f7b218b398df915bd608417a0f48bd6f2dcca4c8e80051b668cfdb"},
	{"spmv", system.SchemeARFtidAdaptive, 2992, 956, "5e604b4c8aa467763d7021776d87187d713a97a496a409e323031aadebc55183"},
	{"spmv", system.SchemeARFea, 3202, 956, "4a58eba3ec6aec8e8e42b2dcc8231d4980f2582c23a40c88e890f8e717a8723c"},
	{"reduce", system.SchemeDRAM, 2436, 1552, "48e5a49ccf908618978b2487e85d774d491b006d860a73d9ef12aea0fe4330e9"},
	{"reduce", system.SchemeHMC, 1019, 1552, "21d197d5affa6e92ddda0516ab6922eff3cb56aabf72790879b475425ec3f38c"},
	{"reduce", system.SchemeART, 1488, 1040, "f3761633388dd9a3b9a27414c7cc52156df14e2a9e39729a4dada1aad5ddbe5d"},
	{"reduce", system.SchemeARFtid, 1242, 1040, "ee9eba022f34d13911d7d90c29ace4b2ab14699cdb8e2ea52471a9ce520def52"},
	{"reduce", system.SchemeARFaddr, 1488, 1040, "233334baaf0bc3cb45eb6173e987bcfcdc2dd67c1f2d60771db1e1a689dabf9e"},
	{"reduce", system.SchemeARFtidAdaptive, 1242, 1040, "75d2411d587aef2664108bd6a34acf0c0a825202097eeb7e33d13bc35e00910c"},
	{"reduce", system.SchemeARFea, 1488, 1040, "1219a6ac2a79c68d9ed56aa0923fafee269eb2dc5ec9051d1b3bfb2f41d163bd"},
	{"rand_reduce", system.SchemeDRAM, 2591, 1552, "4b5401923c536adf3d382018f8559f44f68a49b20f25daa262c4807a1bcd06fb"},
	{"rand_reduce", system.SchemeHMC, 1154, 1552, "bef9d523b6103f3f810176cdd76ce8972c3f500cbc2880919db92b74b6bc44e4"},
	{"rand_reduce", system.SchemeART, 1432, 1040, "763492897f3b341f20adc3d58da3c8b06bfd1d14fbd76d2cc5904e1fee9bd7e4"},
	{"rand_reduce", system.SchemeARFtid, 1080, 1040, "5881a253a80d32b34fe88b09963faf3b9959ccd049abe1c1ca69823fadb9bb4c"},
	{"rand_reduce", system.SchemeARFaddr, 1432, 1040, "089b5d127d919f55b1b85ac6b67e16f30a85818974d11da6d3f1be00a1562b2b"},
	{"rand_reduce", system.SchemeARFtidAdaptive, 1080, 1040, "6347584c1fb04dd737b725b1f6f1e047343ce325cea973d505c93345aa84ff43"},
	{"rand_reduce", system.SchemeARFea, 1432, 1040, "bdd2237fbe108752ed2204536a3673b4fa12e27ef4bc1ae45072e06320d7e94a"},
	{"mac", system.SchemeDRAM, 3618, 2576, "21faf227bc1467ab58e97275a0532d58373029a3a38f14282d3f0f6a5bc8a828"},
	{"mac", system.SchemeHMC, 1551, 2576, "2b770b416b75b55cb5f0d0b959db9aaf1b044cd9d1c5181f9d825dd7936370b4"},
	{"mac", system.SchemeART, 3042, 1040, "dd2ff21e7f4491b915ff7d9a2eb675a5a9c5219d5846a7941f2dd45b1a548739"},
	{"mac", system.SchemeARFtid, 2058, 1040, "ab396a19360aaaed0410dd78f489df8364a3ac8f707fdcdc45d15d74de344510"},
	{"mac", system.SchemeARFaddr, 3042, 1040, "da13d7aead797ace2167098f1ec1cc9bb4bdeae4f51b719c6bf62dc41c696d2c"},
	{"mac", system.SchemeARFtidAdaptive, 2058, 1040, "dd874ba1b7b757515bc35bb071dab1f2e1a19ba75aeb8e2a3255d7b5ba432326"},
	{"mac", system.SchemeARFea, 3042, 1040, "88d6ae9741c08f832c5d2c85ae062bb4acf7bcfb3e9d02dcdd1a7492dbfd7a1d"},
	{"rand_mac", system.SchemeDRAM, 6001, 2576, "1551f6d2ce53525f7e39a688a992cc541de848b13febaa1d7e5c07c9284102a0"},
	{"rand_mac", system.SchemeHMC, 1936, 2576, "8a7f41c459e67a4e1ab6cf6ec60e275b7c3970960d5097c0c508c25799ebec02"},
	{"rand_mac", system.SchemeART, 2700, 1040, "b32ade65f77a4dd2015332f8d7917bb02f4d76033d699fd270e68bd4fd67b18b"},
	{"rand_mac", system.SchemeARFtid, 1462, 1040, "9576227ac61d19e86ad17cc682bad3380ed5cf2b97e96f69e3971c1ed26a9864"},
	{"rand_mac", system.SchemeARFaddr, 2700, 1040, "fd7e66730a803105d81f4f8086932b2a03c7b165a1044e31e6c89d6301d2d3ee"},
	{"rand_mac", system.SchemeARFtidAdaptive, 1462, 1040, "9c6749b8326eef2af9de1e45f00de3b2e30c316c2c107f584c14402b12bd2263"},
	{"rand_mac", system.SchemeARFea, 2700, 1040, "c688b6ba5ed90b31ef56c8a1ea5b49bf631078b141b85f1542d3985354ec64e1"},
}
