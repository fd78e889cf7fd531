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

// goldenDigests pins SHA-256 of every format file of fixed-seed builds,
// captured at the commit before Finalize became a single pass. A change
// to any digest is a change to the on-disk format.
var goldenDigests = map[string]string{
	"dr/agg.bin":                         "d5fa225bf846a672ab94352ce99c1453e22f6a5b4fb95477b82a8dc7c4f3d58d",
	"dr/cat.bin":                         "dfef55ea4ac73397ca3d4f7c9424a5bdf5ff043a82a7b4b4345f3bdbae18bbdf",
	"dr/hier.gob":                        "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"dr/manifest.json":                   "c0ff50cf76468256404e8df0d2c289438d2c808db74f67b731f1e08a7bb7a68a",
	"dr/nt.bin":                          "b624fce0a08e2de217a6483cc87d90532fc7d568e418c6b891a948489635d019",
	"dr/tt.bin":                          "684f0ca0ef41a41c56930a56377f2b22e09fefe8e5cbdb8ae09b962858773b99",
	"flat/agg.bin":                       "3ee0165116f1760f224b337f6ffdac2b47a3903b1be8c87420e9cebc11d83c1a",
	"flat/cat.bin":                       "4f45bf0363cb8e4332db9a7a035f4dfbf56beca28ea5d28c8469246fcb37e791",
	"flat/hier.gob":                      "367cc569ae6fcac35fccea67c15db8ab275a7b502f78d1a5dfeaf90aa3f1b593",
	"flat/manifest.json":                 "6e6feec5677556dd8f8143a4f5b588e0d237d855f71dc92858a3f31b39cdec97",
	"flat/nt.bin":                        "8642e7c2d25243ec6c747ce23799bd142c6d10f4598ed2c2b60bb9e15af25336",
	"flat/tt.bin":                        "57028e75353533ad46ee0ff11ccb33a00415c5321ac59c9e581e62b4cdb0b999",
	"format-a/agg.bin":                   "1c82945fd8f0581c124865c20464d1a107864cda668e36a4cda933bd252c6283",
	"format-a/cat.bin":                   "c9bbb11adb7b8445494807d8ecd4a58016ecdd7dfac21784dd96331d41713eb4",
	"format-a/hier.gob":                  "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"format-a/manifest.json":             "d692221bb72c8720c68c3b35597e214d38a431a6fb19e055f3cadd9bd856723a",
	"format-a/nt.bin":                    "a48d04d26da4e6f18888353abc5b8762bd28bccbe9e72e2649486112114758a7",
	"format-a/tt.bin":                    "47266f433aec5c7a3b1cc4a53c288e4c2732a9e9208b0d24e082c945a295bbca",
	"format-b/agg.bin":                   "e4523066c2a5d8521e1b7bc0de16e14554ed38ef42b370484aebc869939f4802",
	"format-b/cat.bin":                   "87c3f7958ce422560bb1f8c216230b2adeffd9f8884527005afea1e96bc38986",
	"format-b/hier.gob":                  "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"format-b/manifest.json":             "01cfec8a101c49dccd7d6be98873e9be9e41acec5e5a41aa36ce8b0bd9a38a77",
	"format-b/nt.bin":                    "a48d04d26da4e6f18888353abc5b8762bd28bccbe9e72e2649486112114758a7",
	"format-b/tt.bin":                    "47266f433aec5c7a3b1cc4a53c288e4c2732a9e9208b0d24e082c945a295bbca",
	"iceberg/agg.bin":                    "8afd33da94a025240978e9d039064b3fb3d02944f6be2c802120c1eac1efc88c",
	"iceberg/cat.bin":                    "712f8798a94f5e6715f7fe2f6a81449251fb288a13859230dca8d7b47a65d31e",
	"iceberg/hier.gob":                   "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"iceberg/manifest.json":              "c894df003ea9914b86ba8f1900d07e1a78782bcda097a5e44918618cabfb72ae",
	"iceberg/nt.bin":                     "f6a55bda06b64fc3b890b71cfc66d5828b72ea472501384858d26e178eb2f916",
	"iceberg/tt.bin":                     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"pair-partitioned/agg.bin":           "cbb332eb65615e9990087d608e3b59635d15f1e105c4643ff72d91845e86f23d",
	"pair-partitioned/cat.bin":           "1147d26b3fc7516e43dbeba970834de527b2ebcf5200f35bb14d5052728f0c07",
	"pair-partitioned/hier.gob":          "78a39b05fb6af4e22dce52b3dfef330b01933c9b0002c3a681f1886efff0be35",
	"pair-partitioned/manifest.json":     "188bbc52b7e7d93937745dfead87b67468cfbe948a4fc7fa0fa049fd7b5373a1",
	"pair-partitioned/nt.bin":            "a4056c365cf4c2017c9dbe06f2e7821ae7f4cc0357ebe3f3a062234a487d9ba8",
	"pair-partitioned/tt.bin":            "67f57e4b36ac766385db1f84dbc8e21ecebd9eff929586764a10526d62d443d2",
	"partitioned-dr/agg.bin":             "a0226c61cfcc7b9ae02331d4a96d2680a58a53b42b9d98de2acabad17f5d7fa4",
	"partitioned-dr/cat.bin":             "7607e788101d51d8afad3a73d888cf6dda271aa9aeb304774743aaccab6acba0",
	"partitioned-dr/hier.gob":            "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"partitioned-dr/manifest.json":       "d345eec703c4c0f1241d77c39b821aec25236330357328c33d05eb65feeca6b0",
	"partitioned-dr/nt.bin":              "2b4323b4700247b736a9093ef9931e9ca077bd61820aa482b979dd692e6a9dc8",
	"partitioned-dr/tt.bin":              "64f8ea9bc2dde4cff659984bfd98b0610510f911d7487d48ee393a7e0d471f5f",
	"partitioned/agg.bin":                "a0226c61cfcc7b9ae02331d4a96d2680a58a53b42b9d98de2acabad17f5d7fa4",
	"partitioned/cat.bin":                "7607e788101d51d8afad3a73d888cf6dda271aa9aeb304774743aaccab6acba0",
	"partitioned/hier.gob":               "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"partitioned/manifest.json":          "12238651bdba3a26f10faf1776d9f027f085b02f591007a4809f167c40236434",
	"partitioned/nt.bin":                 "154bd77917399bb15f639905cbb0aca11069a196f05f1522d3e3898aa7fadff6",
	"partitioned/tt.bin":                 "64f8ea9bc2dde4cff659984bfd98b0610510f911d7487d48ee393a7e0d471f5f",
	"plain-default-blocks/agg.bin":       "35064263ff5b7a90356f8b688ff9c50d1b3170a6ff33c36887f5f58a734974ef",
	"plain-default-blocks/cat.bin":       "12e644c55b93270b2cfebcc0aec2181e06fbc3885d39818dc73a8ddace92065c",
	"plain-default-blocks/hier.gob":      "78a39b05fb6af4e22dce52b3dfef330b01933c9b0002c3a681f1886efff0be35",
	"plain-default-blocks/manifest.json": "917213297a72894d910df16dd5acfa49aeb4625f61f3c488c99380371d2ee0b8",
	"plain-default-blocks/nt.bin":        "44766ecdc224720ac04bab83fd38b080232de2da723046a6df5e77048d23b1a5",
	"plain-default-blocks/tt.bin":        "558172480622956e28738f9afded602751767566f1f6d998548db694d1342447",
	"plain/agg.bin":                      "d5fa225bf846a672ab94352ce99c1453e22f6a5b4fb95477b82a8dc7c4f3d58d",
	"plain/cat.bin":                      "dfef55ea4ac73397ca3d4f7c9424a5bdf5ff043a82a7b4b4345f3bdbae18bbdf",
	"plain/hier.gob":                     "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"plain/manifest.json":                "1f3ad57adb328fc0d2a0d9b4960637f252ba8a8259ec1f3d9329caee925753c5",
	"plain/nt.bin":                       "a22564f3ea06fee442188665bacb2f281517bc28d9a53e6055619361c69f5430",
	"plain/tt.bin":                       "684f0ca0ef41a41c56930a56377f2b22e09fefe8e5cbdb8ae09b962858773b99",
	"plus-dr-sparse/agg.bin":             "dfb4c9f9d3c885e311f2aa57175cd9754a75438e340502259ec2b068922f74a2",
	"plus-dr-sparse/cat.bin":             "747483b125c24dc0fc70dda39287048acc202229464ed3ae1e36dbaa61103132",
	"plus-dr-sparse/hier.gob":            "78a39b05fb6af4e22dce52b3dfef330b01933c9b0002c3a681f1886efff0be35",
	"plus-dr-sparse/nt.bin":              "f88d7b1598a8171e43bf242abdf8414e2a5a7848d4645cc65b9bc36debff78ea",
	"plus-dr-sparse/tt.bin":              "4a64f1f71d0a83b80d203871013c4599f5949f7358cec192346498fda3897c38",
	"plus-format-a/agg.bin":              "1c82945fd8f0581c124865c20464d1a107864cda668e36a4cda933bd252c6283",
	"plus-format-a/cat.bin":              "c9bbb11adb7b8445494807d8ecd4a58016ecdd7dfac21784dd96331d41713eb4",
	"plus-format-a/hier.gob":             "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"plus-format-a/nt.bin":               "a48d04d26da4e6f18888353abc5b8762bd28bccbe9e72e2649486112114758a7",
	"plus-format-a/tt.bin":               "edc44a98e27c35bc4481e1b528af65a565707400dd73c67059155ce69f0dc853",
	"plus/agg.bin":                       "d5fa225bf846a672ab94352ce99c1453e22f6a5b4fb95477b82a8dc7c4f3d58d",
	"plus/cat.bin":                       "dfef55ea4ac73397ca3d4f7c9424a5bdf5ff043a82a7b4b4345f3bdbae18bbdf",
	"plus/hier.gob":                      "10a90088b7dd246a350b2127b7517c990f8069d6ce1d9b6fda2263788fffd9a7",
	"plus/nt.bin":                        "a22564f3ea06fee442188665bacb2f281517bc28d9a53e6055619361c69f5430",
	"plus/tt.bin":                        "0f910b9a1221a4cec1e1fdc684e4bbf51fc9038d71ce5480ab7c9039de801ef9",
}

// goldenPlusSizes pins the file sizes of the CURE+ cases. The order of
// the bitmaps inside ttbm.bin (and with it the tt_off of those nodes in
// the manifest) is not part of the format, so those two files are pinned
// by size and by answering every node like the brute-force group-by.
var goldenPlusSizes = map[string]int64{
	"plus-dr-sparse/sizes.agg":    515,
	"plus-dr-sparse/sizes.bitmap": 1512,
	"plus-dr-sparse/sizes.cat":    8159,
	"plus-dr-sparse/sizes.nt":     1664,
	"plus-dr-sparse/sizes.tt":     55,
	"plus-dr-sparse/ttbm.bin":     1512,
	"plus-format-a/sizes.agg":     2428,
	"plus-format-a/sizes.bitmap":  208,
	"plus-format-a/sizes.cat":     688,
	"plus-format-a/sizes.nt":      3412,
	"plus-format-a/sizes.tt":      5,
	"plus-format-a/ttbm.bin":      208,
	"plus/sizes.agg":              529,
	"plus/sizes.bitmap":           208,
	"plus/sizes.cat":              1637,
	"plus/sizes.nt":               3446,
	"plus/sizes.tt":               5,
	"plus/ttbm.bin":               208,
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
					if tc.plus && name == storage.ManifestFile {
						continue
					}
					sum := sha256.Sum256(data)
					if got := hex.EncodeToString(sum[:]); got != goldenDigests[key] {
						t.Errorf("%q: %q,", key, got)
					}
				}
				if !tc.plus {
					return
				}
				fi, err := os.Stat(filepath.Join(dir, storage.BitmapFile))
				if err != nil {
					t.Fatalf("CURE+ case wrote no bitmap: %v", err)
				}
				if key := tc.name + "/" + storage.BitmapFile; fi.Size() != goldenPlusSizes[key] {
					t.Errorf("%q: %d,", key, fi.Size())
				}
				eng, err := query.Open(dir, query.Options{CacheFraction: 1})
				if err != nil {
					t.Fatal(err)
				}
				sizes := eng.Manifest().Sizes
				eng.Close()
				for k, v := range map[string]int64{"nt": sizes.NT, "tt": sizes.TT, "cat": sizes.CAT, "agg": sizes.Agg, "bitmap": sizes.Bitmap} {
					if key := tc.name + "/sizes." + k; v != goldenPlusSizes[key] {
						t.Errorf("%q: %d,", key, v)
					}
				}
				verifyCube(t, dir, hier, ft, opts.AggSpecs, query.Options{CacheFraction: 1, PinAggregates: true})
			})
		}
	}
}
