package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"cure/internal/hierarchy"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/storage"
)

// goldenFiles are the files of a cube directory whose bytes are part of
// the format (finalize.json holds wall clocks and is not).
var goldenFiles = []string{
	storage.NTFile, storage.TTFile, storage.CATFile, storage.AggFile,
	storage.HierFile, storage.ManifestFile,
}

// goldenDigests pins SHA-256 of every format file of fixed-seed builds.
// The nt/cat/agg.bin files and hier.gob were captured at the commit before
// Finalize became a single pass. The tt.bin files and the manifests were
// re-captured when CURE+ became the only layout a build writes: "plain"
// and "format-a" then reproduced the old opt-in CURE+ cases byte for byte
// in every file but the manifest, and "plain-layout" the old "plain".
// "plus" and "plus-format-a" hold the §5.3 layout at the default block
// size on the paper hierarchy, where tt.bin differs from the plain
// layout's; their five non-manifest files were checked against opt-in
// CURE+ builds of the same seeds and blocks at that commit. The manifests
// were re-captured again at version 3, when plan_parents replaced the
// partition levels and the compression name, and at version 4, when zone
// maps kept base bounds only (plus a slot per non-monotone level); no
// other file changed either time. A change to any digest is a change to
// the on-disk format.
var goldenDigests = map[string]string{
	"dr-sparse/agg.bin":                  "dfb4c9f9d3c885e311f2aa57175cd9754a75438e340502259ec2b068922f74a2",
	"dr-sparse/cat.bin":                  "747483b125c24dc0fc70dda39287048acc202229464ed3ae1e36dbaa61103132",
	"dr-sparse/hier.gob":                 "78a39b05fb6af4e22dce52b3dfef330b01933c9b0002c3a681f1886efff0be35",
	"dr-sparse/manifest.json":            "c94f45efffd78734a36f2dfb6eee77c8e08c7c133b637f9ba9a2854c6d19d150",
	"dr-sparse/nt.bin":                   "f88d7b1598a8171e43bf242abdf8414e2a5a7848d4645cc65b9bc36debff78ea",
	"dr-sparse/tt.bin":                   "750fbe1c84708e64572ec92d212f376a42a4b70ff10d796fb5f996eef206d211",
	"dr/agg.bin":                         "d5fa225bf846a672ab94352ce99c1453e22f6a5b4fb95477b82a8dc7c4f3d58d",
	"dr/cat.bin":                         "dfef55ea4ac73397ca3d4f7c9424a5bdf5ff043a82a7b4b4345f3bdbae18bbdf",
	"dr/hier.gob":                        "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"dr/manifest.json":                   "d73c14879ba87829be0fd37bd0045c4ceb30a22771c3a3dfe0118c6f9ec7a6d2",
	"dr/nt.bin":                          "b624fce0a08e2de217a6483cc87d90532fc7d568e418c6b891a948489635d019",
	"dr/tt.bin":                          "e1082df9cf3db739b237af75515b329756e6983af24f1d05de001f9c4c0406c6",
	"flat/agg.bin":                       "3ee0165116f1760f224b337f6ffdac2b47a3903b1be8c87420e9cebc11d83c1a",
	"flat/cat.bin":                       "4f45bf0363cb8e4332db9a7a035f4dfbf56beca28ea5d28c8469246fcb37e791",
	"flat/hier.gob":                      "367cc569ae6fcac35fccea67c15db8ab275a7b502f78d1a5dfeaf90aa3f1b593",
	"flat/manifest.json":                 "71d3a250c320014b2c76175ca974f70c138ac1331603eddfcf72a6ba4114fe37",
	"flat/nt.bin":                        "8642e7c2d25243ec6c747ce23799bd142c6d10f4598ed2c2b60bb9e15af25336",
	"flat/tt.bin":                        "36e3ea9127fe1453d8a226493c055e97022da346474bbf46b6fad7e4f8e1c67c",
	"format-a/agg.bin":                   "1c82945fd8f0581c124865c20464d1a107864cda668e36a4cda933bd252c6283",
	"format-a/cat.bin":                   "c9bbb11adb7b8445494807d8ecd4a58016ecdd7dfac21784dd96331d41713eb4",
	"format-a/hier.gob":                  "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"format-a/manifest.json":             "61bcedda5e54aa0046218dcc287f755349b14d3d15e015236ab794e22be6885a",
	"format-a/nt.bin":                    "a48d04d26da4e6f18888353abc5b8762bd28bccbe9e72e2649486112114758a7",
	"format-a/tt.bin":                    "41315e17afb1c2719f9aa1947853659ed07eeb03ba8d7ffab543cd8c0c09c20c",
	"format-b/agg.bin":                   "e4523066c2a5d8521e1b7bc0de16e14554ed38ef42b370484aebc869939f4802",
	"format-b/cat.bin":                   "87c3f7958ce422560bb1f8c216230b2adeffd9f8884527005afea1e96bc38986",
	"format-b/hier.gob":                  "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"format-b/manifest.json":             "3f7ae6947ed3d8a1ea174a884984c8ed7aff68e8cf9b1210bd0f8b173b8efd0f",
	"format-b/nt.bin":                    "a48d04d26da4e6f18888353abc5b8762bd28bccbe9e72e2649486112114758a7",
	"format-b/tt.bin":                    "41315e17afb1c2719f9aa1947853659ed07eeb03ba8d7ffab543cd8c0c09c20c",
	"iceberg/agg.bin":                    "8afd33da94a025240978e9d039064b3fb3d02944f6be2c802120c1eac1efc88c",
	"iceberg/cat.bin":                    "712f8798a94f5e6715f7fe2f6a81449251fb288a13859230dca8d7b47a65d31e",
	"iceberg/hier.gob":                   "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"iceberg/manifest.json":              "7b8e25272dbd89f58c17bcc1ca6d749f6a646f93b93cc933a9cb98044c622e87",
	"iceberg/nt.bin":                     "f6a55bda06b64fc3b890b71cfc66d5828b72ea472501384858d26e178eb2f916",
	"iceberg/tt.bin":                     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"pair-partitioned/agg.bin":           "cbb332eb65615e9990087d608e3b59635d15f1e105c4643ff72d91845e86f23d",
	"pair-partitioned/cat.bin":           "1147d26b3fc7516e43dbeba970834de527b2ebcf5200f35bb14d5052728f0c07",
	"pair-partitioned/hier.gob":          "78a39b05fb6af4e22dce52b3dfef330b01933c9b0002c3a681f1886efff0be35",
	"pair-partitioned/manifest.json":     "b8b6a787d4d469c7e84b3e3058fb8a755143dcc0321bf7826027687f233437d1",
	"pair-partitioned/nt.bin":            "a4056c365cf4c2017c9dbe06f2e7821ae7f4cc0357ebe3f3a062234a487d9ba8",
	"pair-partitioned/tt.bin":            "f555f6f035f50cccbdd0e7f6c459db5f58caa26ff00620139dd7f78c748177c4",
	"partitioned-dr/agg.bin":             "a0226c61cfcc7b9ae02331d4a96d2680a58a53b42b9d98de2acabad17f5d7fa4",
	"partitioned-dr/cat.bin":             "7607e788101d51d8afad3a73d888cf6dda271aa9aeb304774743aaccab6acba0",
	"partitioned-dr/hier.gob":            "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"partitioned-dr/manifest.json":       "1f2188514c51b02ba3128b69125b65d1b85eeab923c27b4caf59335c022cd841",
	"partitioned-dr/nt.bin":              "2b4323b4700247b736a9093ef9931e9ca077bd61820aa482b979dd692e6a9dc8",
	"partitioned-dr/tt.bin":              "f0a7127999c7d106f5149bc3958c4116ab96308c01677c293406b32953724db0",
	"partitioned/agg.bin":                "a0226c61cfcc7b9ae02331d4a96d2680a58a53b42b9d98de2acabad17f5d7fa4",
	"partitioned/cat.bin":                "7607e788101d51d8afad3a73d888cf6dda271aa9aeb304774743aaccab6acba0",
	"partitioned/hier.gob":               "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"partitioned/manifest.json":          "fa4ce155346018dabd530ceded913922e26fa87d62cbbde7a10b4530dac1e4ff",
	"partitioned/nt.bin":                 "154bd77917399bb15f639905cbb0aca11069a196f05f1522d3e3898aa7fadff6",
	"partitioned/tt.bin":                 "f0a7127999c7d106f5149bc3958c4116ab96308c01677c293406b32953724db0",
	"plain-default-blocks/agg.bin":       "35064263ff5b7a90356f8b688ff9c50d1b3170a6ff33c36887f5f58a734974ef",
	"plain-default-blocks/cat.bin":       "12e644c55b93270b2cfebcc0aec2181e06fbc3885d39818dc73a8ddace92065c",
	"plain-default-blocks/hier.gob":      "78a39b05fb6af4e22dce52b3dfef330b01933c9b0002c3a681f1886efff0be35",
	"plain-default-blocks/manifest.json": "98f423bcba889abe9c852a4cdb76450a0dcbf7d83729de9d814145338027c532",
	"plain-default-blocks/nt.bin":        "44766ecdc224720ac04bab83fd38b080232de2da723046a6df5e77048d23b1a5",
	"plain-default-blocks/tt.bin":        "7f690d199ece5acbb1bce15a7eb5081341aa29747c782931bde58b4259afebc8",
	"plain-layout/agg.bin":               "d5fa225bf846a672ab94352ce99c1453e22f6a5b4fb95477b82a8dc7c4f3d58d",
	"plain-layout/cat.bin":               "dfef55ea4ac73397ca3d4f7c9424a5bdf5ff043a82a7b4b4345f3bdbae18bbdf",
	"plain-layout/hier.gob":              "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"plain-layout/manifest.json":         "ec12eeeaf5c5ba43a0e83b2ddf80590cca14f11ee50b69785d011c80374aee2a",
	"plain-layout/nt.bin":                "a22564f3ea06fee442188665bacb2f281517bc28d9a53e6055619361c69f5430",
	"plain-layout/tt.bin":                "684f0ca0ef41a41c56930a56377f2b22e09fefe8e5cbdb8ae09b962858773b99",
	"plain/agg.bin":                      "d5fa225bf846a672ab94352ce99c1453e22f6a5b4fb95477b82a8dc7c4f3d58d",
	"plain/cat.bin":                      "dfef55ea4ac73397ca3d4f7c9424a5bdf5ff043a82a7b4b4345f3bdbae18bbdf",
	"plain/hier.gob":                     "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"plain/manifest.json":                "4b0e87dfcf36f76763f61412050bcdad50e4481fb41864bc03730fcd2863b01e",
	"plain/nt.bin":                       "a22564f3ea06fee442188665bacb2f281517bc28d9a53e6055619361c69f5430",
	"plain/tt.bin":                       "e1082df9cf3db739b237af75515b329756e6983af24f1d05de001f9c4c0406c6",
	"plus-format-a/agg.bin":              "ea4fddf3d234c67ad959556b8bf0ba096f9a827661d8a7262f78fefcb4b9a0bd",
	"plus-format-a/cat.bin":              "31fd2500d84f01dee7c57ab5a90d7d7296e69369aeb93a6221ddbafc37668283",
	"plus-format-a/hier.gob":             "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"plus-format-a/manifest.json":        "f355a694a9b50bf6200a69c319d5a180e712009d11b56535d83b2804d99dcc8d",
	"plus-format-a/nt.bin":               "24985c2778722db1ad2d1cc59c34fc5c709d2e00dd29f76045bf46d367142094",
	"plus-format-a/tt.bin":               "a3394f0e25c293f944e9f87f360d581191252800195988db230fc8b11159ce6b",
	"plus/agg.bin":                       "2ff074b4ade61381b1c2bdcd5e1164b8f98dcdc7a50732550c1f4ae03317a186",
	"plus/cat.bin":                       "aa4ba57d878ccc2f9aa9512af565b11c96c31687987d09cb95b63e7b253aa7d4",
	"plus/hier.gob":                      "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"plus/manifest.json":                 "b6b68fb3bb1aecd26f6063c9c93bd3239815cca85fded5f0dcee45680a62cb4c",
	"plus/nt.bin":                        "a6aa60d5122ca1469abd98e222cbb1759b247b4ef457e49f16e48f3b6b1a7e78",
	"plus/tt.bin":                        "30bf0d3fcdfdffa9a400cd5d022936252ff947599e8a2c05ee95582b61ac62e4",
}

// TestCubeGoldenDigests is the characterisation test of the store: every
// build path and variant, at FinalizeParallelism 1 and 8, must write the
// bytes it wrote before.
func TestCubeGoldenDigests(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		pair bool
		rows int
		seed int64
	}{
		{name: "plain", opts: Options{ZoneBlockRows: 16}, rows: 1500, seed: 7},
		{name: "plain-default-blocks", opts: Options{}, pair: true, seed: 11},
		{name: "dr", opts: Options{DimsInline: true, ZoneBlockRows: 16}, rows: 1500, seed: 7},
		{name: "flat", opts: Options{Flat: true, ZoneBlockRows: 16}, rows: 1500, seed: 8},
		{name: "format-a", opts: Options{forceFormat: signature.FormatA, ZoneBlockRows: 16}, rows: 1500, seed: 9},
		{name: "format-b", opts: Options{forceFormat: signature.FormatB, ZoneBlockRows: 16}, rows: 1500, seed: 9},
		{name: "iceberg", opts: Options{Iceberg: 3, ZoneBlockRows: 16}, rows: 1500, seed: 10},
		{name: "partitioned", opts: Options{MemoryBudget: 16_000, ZoneBlockRows: 16}, rows: 800, seed: 7},
		{name: "partitioned-dr", opts: Options{MemoryBudget: 16_000, DimsInline: true, ZoneBlockRows: 16}, rows: 800, seed: 7},
		{name: "pair-partitioned", opts: Options{MemoryBudget: 5_600, ZoneBlockRows: 16}, pair: true, seed: 27},
		{name: "dr-sparse", opts: Options{DimsInline: true, ZoneBlockRows: 16}, pair: true, seed: 11},
		{name: "plain-layout", opts: Options{ZoneBlockRows: 16, plainLayout: true}, rows: 1500, seed: 7},
		{name: "plus", opts: Options{}, rows: 1500, seed: 7},
		{name: "plus-format-a", opts: Options{forceFormat: signature.FormatA}, rows: 1500, seed: 9},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 8} {
			t.Run(tc.name+"/P"+string(rune('0'+p)), func(t *testing.T) {
				var hier *hierarchy.Schema
				var ft *relation.FactTable
				if tc.pair {
					hier, ft = pairHier(t), pairEquivFact(t, tc.seed)
				} else {
					hier, ft = paperHier(t), randomFact(t, tc.rows, tc.seed)
				}
				// The fact file lives inside the cube directory so that the
				// manifest records it by a relative path.
				dir := filepath.Join(t.TempDir(), "cube")
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				opts := tc.opts
				opts.Dir, opts.FactPath = dir, filepath.Join(dir, "fact.bin")
				opts.Hier, opts.AggSpecs = hier, testSpecs()
				opts.Compression = "auto"
				opts.Parallelism, opts.FinalizeParallelism = 1, p
				if err := relation.WriteFactFile(opts.FactPath, ft); err != nil {
					t.Fatal(err)
				}
				stats, err := Build(opts)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Partitioned != (opts.MemoryBudget > 0) {
					t.Fatalf("partitioned = %v with budget %d", stats.Partitioned, opts.MemoryBudget)
				}
				for _, name := range goldenFiles {
					data, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					key := tc.name + "/" + name
					sum := sha256.Sum256(data)
					if got := hex.EncodeToString(sum[:]); got != goldenDigests[key] {
						t.Errorf("%q: %q,", key, got)
					}
				}
				checkCube(t, dir, tc.seed+int64(p))
				checkLayout(t, dir, opts)
			})
		}
	}
}
