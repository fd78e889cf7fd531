package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"cure/internal/hierarchy"
	"cure/internal/query"
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
// The relation files and hier.gob of the plain variants were captured at
// the commit before Finalize became a single pass; the manifests and the
// CURE+ tt.bin files when CURE+ bitmaps became blocks of tt.bin and the
// manifest lost its indentation. A change to any digest is a change to
// the on-disk format.
var goldenDigests = map[string]string{
	"dr/agg.bin":                         "d5fa225bf846a672ab94352ce99c1453e22f6a5b4fb95477b82a8dc7c4f3d58d",
	"dr/cat.bin":                         "dfef55ea4ac73397ca3d4f7c9424a5bdf5ff043a82a7b4b4345f3bdbae18bbdf",
	"dr/hier.gob":                        "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"dr/manifest.json":                   "e8ee5745d448111a8e1de587f471ad56fabba24cbeef7df26daf67f6a5262e9c",
	"dr/nt.bin":                          "b624fce0a08e2de217a6483cc87d90532fc7d568e418c6b891a948489635d019",
	"dr/tt.bin":                          "684f0ca0ef41a41c56930a56377f2b22e09fefe8e5cbdb8ae09b962858773b99",
	"flat/agg.bin":                       "3ee0165116f1760f224b337f6ffdac2b47a3903b1be8c87420e9cebc11d83c1a",
	"flat/cat.bin":                       "4f45bf0363cb8e4332db9a7a035f4dfbf56beca28ea5d28c8469246fcb37e791",
	"flat/hier.gob":                      "367cc569ae6fcac35fccea67c15db8ab275a7b502f78d1a5dfeaf90aa3f1b593",
	"flat/manifest.json":                 "778df2bdc7b22602b12c065cb7ebbd8d16f994dd47f1d6b54b2d127d4ba32a50",
	"flat/nt.bin":                        "8642e7c2d25243ec6c747ce23799bd142c6d10f4598ed2c2b60bb9e15af25336",
	"flat/tt.bin":                        "57028e75353533ad46ee0ff11ccb33a00415c5321ac59c9e581e62b4cdb0b999",
	"format-a/agg.bin":                   "1c82945fd8f0581c124865c20464d1a107864cda668e36a4cda933bd252c6283",
	"format-a/cat.bin":                   "c9bbb11adb7b8445494807d8ecd4a58016ecdd7dfac21784dd96331d41713eb4",
	"format-a/hier.gob":                  "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"format-a/manifest.json":             "b1217af566a1bab48fa31ddfd50a21fccecd9bf384b8594d221189bdfe32a464",
	"format-a/nt.bin":                    "a48d04d26da4e6f18888353abc5b8762bd28bccbe9e72e2649486112114758a7",
	"format-a/tt.bin":                    "47266f433aec5c7a3b1cc4a53c288e4c2732a9e9208b0d24e082c945a295bbca",
	"format-b/agg.bin":                   "e4523066c2a5d8521e1b7bc0de16e14554ed38ef42b370484aebc869939f4802",
	"format-b/cat.bin":                   "87c3f7958ce422560bb1f8c216230b2adeffd9f8884527005afea1e96bc38986",
	"format-b/hier.gob":                  "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"format-b/manifest.json":             "15f7b41eeacba15405609a7860366ba2bfddac03004843c7522de4dc17256f09",
	"format-b/nt.bin":                    "a48d04d26da4e6f18888353abc5b8762bd28bccbe9e72e2649486112114758a7",
	"format-b/tt.bin":                    "47266f433aec5c7a3b1cc4a53c288e4c2732a9e9208b0d24e082c945a295bbca",
	"iceberg/agg.bin":                    "8afd33da94a025240978e9d039064b3fb3d02944f6be2c802120c1eac1efc88c",
	"iceberg/cat.bin":                    "712f8798a94f5e6715f7fe2f6a81449251fb288a13859230dca8d7b47a65d31e",
	"iceberg/hier.gob":                   "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"iceberg/manifest.json":              "fd86792bc9be6072990c0cb6b160a491175b39d51964ffdc0c12cafa91d79a57",
	"iceberg/nt.bin":                     "f6a55bda06b64fc3b890b71cfc66d5828b72ea472501384858d26e178eb2f916",
	"iceberg/tt.bin":                     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"pair-partitioned/agg.bin":           "cbb332eb65615e9990087d608e3b59635d15f1e105c4643ff72d91845e86f23d",
	"pair-partitioned/cat.bin":           "1147d26b3fc7516e43dbeba970834de527b2ebcf5200f35bb14d5052728f0c07",
	"pair-partitioned/hier.gob":          "78a39b05fb6af4e22dce52b3dfef330b01933c9b0002c3a681f1886efff0be35",
	"pair-partitioned/manifest.json":     "fe784ed95267398368a4ef429beb90bd4e00a9e9d7dd3eee37c98e1cf76c519e",
	"pair-partitioned/nt.bin":            "a4056c365cf4c2017c9dbe06f2e7821ae7f4cc0357ebe3f3a062234a487d9ba8",
	"pair-partitioned/tt.bin":            "67f57e4b36ac766385db1f84dbc8e21ecebd9eff929586764a10526d62d443d2",
	"partitioned-dr/agg.bin":             "a0226c61cfcc7b9ae02331d4a96d2680a58a53b42b9d98de2acabad17f5d7fa4",
	"partitioned-dr/cat.bin":             "7607e788101d51d8afad3a73d888cf6dda271aa9aeb304774743aaccab6acba0",
	"partitioned-dr/hier.gob":            "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"partitioned-dr/manifest.json":       "d7909ee46ea0751ca9eca3ad65f9faaf3899e492fe796d5da5fa8dc721d5d7ba",
	"partitioned-dr/nt.bin":              "2b4323b4700247b736a9093ef9931e9ca077bd61820aa482b979dd692e6a9dc8",
	"partitioned-dr/tt.bin":              "64f8ea9bc2dde4cff659984bfd98b0610510f911d7487d48ee393a7e0d471f5f",
	"partitioned/agg.bin":                "a0226c61cfcc7b9ae02331d4a96d2680a58a53b42b9d98de2acabad17f5d7fa4",
	"partitioned/cat.bin":                "7607e788101d51d8afad3a73d888cf6dda271aa9aeb304774743aaccab6acba0",
	"partitioned/hier.gob":               "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"partitioned/manifest.json":          "1d294a94374628528d03e707378b9384198dd31a2e70cb420e6a55ff1d38644d",
	"partitioned/nt.bin":                 "154bd77917399bb15f639905cbb0aca11069a196f05f1522d3e3898aa7fadff6",
	"partitioned/tt.bin":                 "64f8ea9bc2dde4cff659984bfd98b0610510f911d7487d48ee393a7e0d471f5f",
	"plain-default-blocks/agg.bin":       "35064263ff5b7a90356f8b688ff9c50d1b3170a6ff33c36887f5f58a734974ef",
	"plain-default-blocks/cat.bin":       "12e644c55b93270b2cfebcc0aec2181e06fbc3885d39818dc73a8ddace92065c",
	"plain-default-blocks/hier.gob":      "78a39b05fb6af4e22dce52b3dfef330b01933c9b0002c3a681f1886efff0be35",
	"plain-default-blocks/manifest.json": "fd5916bd9d4748fea98ba292cf9dddb7925f8133ec11a1d1f0584c1e124a4dd3",
	"plain-default-blocks/nt.bin":        "44766ecdc224720ac04bab83fd38b080232de2da723046a6df5e77048d23b1a5",
	"plain-default-blocks/tt.bin":        "558172480622956e28738f9afded602751767566f1f6d998548db694d1342447",
	"plain/agg.bin":                      "d5fa225bf846a672ab94352ce99c1453e22f6a5b4fb95477b82a8dc7c4f3d58d",
	"plain/cat.bin":                      "dfef55ea4ac73397ca3d4f7c9424a5bdf5ff043a82a7b4b4345f3bdbae18bbdf",
	"plain/hier.gob":                     "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"plain/manifest.json":                "7ec1dcf20fd9b1123b3774d3902efeaa73c061d2bc55cd21cc4eae79dbb0f5d5",
	"plain/nt.bin":                       "a22564f3ea06fee442188665bacb2f281517bc28d9a53e6055619361c69f5430",
	"plain/tt.bin":                       "684f0ca0ef41a41c56930a56377f2b22e09fefe8e5cbdb8ae09b962858773b99",
	"plus-dr-sparse/agg.bin":             "dfb4c9f9d3c885e311f2aa57175cd9754a75438e340502259ec2b068922f74a2",
	"plus-dr-sparse/cat.bin":             "747483b125c24dc0fc70dda39287048acc202229464ed3ae1e36dbaa61103132",
	"plus-dr-sparse/hier.gob":            "78a39b05fb6af4e22dce52b3dfef330b01933c9b0002c3a681f1886efff0be35",
	"plus-dr-sparse/manifest.json":       "2c9c0cdc8e55761f55d2de4ab9434d1f4d8dbb62bd0cd96937847e48903e0038",
	"plus-dr-sparse/nt.bin":              "f88d7b1598a8171e43bf242abdf8414e2a5a7848d4645cc65b9bc36debff78ea",
	"plus-dr-sparse/tt.bin":              "750fbe1c84708e64572ec92d212f376a42a4b70ff10d796fb5f996eef206d211",
	"plus-format-a/agg.bin":              "1c82945fd8f0581c124865c20464d1a107864cda668e36a4cda933bd252c6283",
	"plus-format-a/cat.bin":              "c9bbb11adb7b8445494807d8ecd4a58016ecdd7dfac21784dd96331d41713eb4",
	"plus-format-a/hier.gob":             "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"plus-format-a/manifest.json":        "53b4e06576ce90034ac87370336b7c4e5339a5a4fa9eacff1457ad3676938937",
	"plus-format-a/nt.bin":               "a48d04d26da4e6f18888353abc5b8762bd28bccbe9e72e2649486112114758a7",
	"plus-format-a/tt.bin":               "41315e17afb1c2719f9aa1947853659ed07eeb03ba8d7ffab543cd8c0c09c20c",
	"plus/agg.bin":                       "d5fa225bf846a672ab94352ce99c1453e22f6a5b4fb95477b82a8dc7c4f3d58d",
	"plus/cat.bin":                       "dfef55ea4ac73397ca3d4f7c9424a5bdf5ff043a82a7b4b4345f3bdbae18bbdf",
	"plus/hier.gob":                      "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"plus/manifest.json":                 "c71521ff8baa28f3ba52250f84296b68f178c258c8af89b4542a8a114c4fce44",
	"plus/nt.bin":                        "a22564f3ea06fee442188665bacb2f281517bc28d9a53e6055619361c69f5430",
	"plus/tt.bin":                        "e1082df9cf3db739b237af75515b329756e6983af24f1d05de001f9c4c0406c6",
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
		plus bool
	}{
		{name: "plain", opts: Options{ZoneBlockRows: 16}, rows: 1500, seed: 7},
		{name: "plain-default-blocks", opts: Options{}, pair: true, seed: 11},
		{name: "dr", opts: Options{DimsInline: true, ZoneBlockRows: 16}, rows: 1500, seed: 7},
		{name: "flat", opts: Options{Flat: true, ZoneBlockRows: 16}, rows: 1500, seed: 8},
		{name: "format-a", opts: Options{ForceFormat: signature.FormatA, ZoneBlockRows: 16}, rows: 1500, seed: 9},
		{name: "format-b", opts: Options{ForceFormat: signature.FormatB, ZoneBlockRows: 16}, rows: 1500, seed: 9},
		{name: "iceberg", opts: Options{Iceberg: 3, ZoneBlockRows: 16}, rows: 1500, seed: 10},
		{name: "partitioned", opts: Options{MemoryBudget: 16_000, ZoneBlockRows: 16}, rows: 800, seed: 7},
		{name: "partitioned-dr", opts: Options{MemoryBudget: 16_000, DimsInline: true, ZoneBlockRows: 16}, rows: 800, seed: 7},
		{name: "pair-partitioned", opts: Options{MemoryBudget: 5_600, ZoneBlockRows: 16}, pair: true, seed: 27},
		{name: "plus", opts: Options{Plus: true, ZoneBlockRows: 16}, rows: 1500, seed: 7, plus: true},
		{name: "plus-format-a", opts: Options{Plus: true, ForceFormat: signature.FormatA, ZoneBlockRows: 16}, rows: 1500, seed: 9, plus: true},
		{name: "plus-dr-sparse", opts: Options{Plus: true, DimsInline: true, ZoneBlockRows: 16}, pair: true, seed: 11, plus: true},
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
				if tc.plus {
					verifyCube(t, dir, hier, ft, opts.AggSpecs, query.Options{CacheFraction: 1, PinAggregates: true})
				}
			})
		}
	}
}
