package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// goldenItems is how many leading items of each benchmark stream are pinned.
const goldenItems = 100_000

// goldenStreamSeed seeds every pinned stream.
const goldenStreamSeed = 7

// goldenStreams pins the sha256 of the first goldenItems items of every
// suite benchmark's generator. Trace streams feed every simulated number,
// and checkpoints restore a generator by replaying its Next calls, so any
// change to these hashes is a change to simulated behaviour and needs a
// snapshot and ledger version bump, not a silent update.
var goldenStreams = map[string]string{
	"mcf-like":        "77f5958a78a6ef5c879aeb32dfca5195f88d6b270c9a4267b5e4ceb53194f202",
	"libquantum-like": "46e07e32f6ca80babc38ae0b284cd9711a8a3bc4f351ea66e55b44f4a784d5a1",
	"lbm-like":        "8eb19fe0ecce26ee9e5b1d84985fe8fa694991539c7aa904843c584df4ff1078",
	"milc-like":       "00ea0a6b56029bfa6bba525e79fddc51909b7e761f5c143392ad68225dfa1749",
	"soplex-like":     "39925511808161f5ba4b58c23701f5e7dc9f7fc3ff514133e6edf75998a28000",
	"gems-like":       "8489e6ce4d91ce1af8cd4177b507e1a11d5cb6442cf243dd4ff655c58347d453",
	"omnetpp-like":    "ad32c65aa767ee10419fa22f0e2d4afefdc85c8617a65a899e295750aae4405b",
	"leslie3d-like":   "cfbe98c7696c845348eb5e856238bd736e5747058c7470584d3ef469b9e651d1",
	"bwaves-like":     "84763ff9148059d51dbcdbd21a49c7fea6a510c0aa321e1e9b502f0d1f0179c9",
	"sphinx3-like":    "7a67f93ccc2a73eb2c3b7c01466060bb56635206d68d1e21d46af256334f288f",
	"astar-like":      "d8edfdf8c5c3bd9c3eceb0f3b071e51c59cd765fc5e4c32cbcd96d0b616bfd9f",
	"zeusmp-like":     "7aa48683a537c944d754ad103b143e01f8f94f3dcf38d8e9c36496bd9dde026f",
	"cactus-like":     "4ba35c58ac7a9f90e01311ac9a744614f092f52c61a93dbb0dfaf93ce5fae368",
	"gcc-like":        "f21d61cf1bafb262764b47809cf699e91200d84e259f007e6467a5aaaa15c325",
	"h264-like":       "b52fd3138eeb7aed116dd613be3897915901529d58dc14366a15660e04e383b5",
	"gobmk-like":      "9ff3303199d2a952db128970e1d67deedaf13d1d3f44ec7f9869a2751d618717",
	"calculix-like":   "be9c382080ae8bda78a65900a7928405c4e8e002afaf38e524e57df911218a7d",
	"povray-like":     "19648e8979dd90658b1c85a32ccecb38c4647fc9d8a3050f14d363c115e9298e",
}

// streamHash hashes n items of spec's generator: per item, Gap and Addr as
// little-endian 64-bit words, then one flag byte (bit 0 IsWrite, bit 1
// Dependent).
func streamHash(spec Spec, seed int64, n int) string {
	gen := spec.New(seed)
	h := sha256.New()
	var buf [17]byte
	for i := 0; i < n; i++ {
		it := gen.Next()
		binary.LittleEndian.PutUint64(buf[0:8], uint64(it.Gap))
		binary.LittleEndian.PutUint64(buf[8:16], it.Addr)
		buf[16] = 0
		if it.IsWrite {
			buf[16] |= 1
		}
		if it.Dependent {
			buf[16] |= 2
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenStreams(t *testing.T) {
	suite := Suite()
	if len(suite) != len(goldenStreams) {
		t.Fatalf("suite has %d benchmarks, %d are pinned", len(suite), len(goldenStreams))
	}
	for _, spec := range suite {
		want, ok := goldenStreams[spec.Name]
		if !ok {
			t.Errorf("%s: no pinned stream hash", spec.Name)
			continue
		}
		if got := streamHash(spec, goldenStreamSeed, goldenItems); got != want {
			t.Errorf("%s: first %d items hash to %s, pinned %s", spec.Name, goldenItems, got, want)
		}
	}
}
