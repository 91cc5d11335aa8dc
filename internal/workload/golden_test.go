package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"hbtree/internal/keys"
)

// datasetDigest is the SHA-256 of Dataset's pairs, each key and value
// written as a little-endian uint64.
func datasetDigest[K keys.Key](d Distribution, n int, seed uint64) string {
	h := sha256.New()
	var buf [16]byte
	for _, p := range Dataset[K](d, n, seed) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(p.Key))
		binary.LittleEndian.PutUint64(buf[8:], uint64(p.Value))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratePairsGolden pins every dataset the trees are bulk-loaded
// from to the byte, so a change to how keys are drawn, sorted or
// de-duplicated cannot move a figure or a benchmark dataset unnoticed.
// Zipf stops at 2^10 keys: its 2^20-rank universe yields distinct keys
// so slowly that 2^12 already takes seconds.
func TestGeneratePairsGolden(t *testing.T) {
	golden := []struct {
		d     Distribution
		n     int
		seed  uint64
		width int
		sum   string
	}{
		{Uniform, 1 << 10, 1, 32, "cd98a54a8ed69da236b32af774a3c1205153b1ffeb5e1b43582096f8963de974"},
		{Uniform, 1 << 10, 1, 64, "af7fe52ab1b43a1d5f7bf1a28d15a9d04144a3a560a7f12ea9f4da0ec6c71817"},
		{Uniform, 1 << 10, 7, 32, "347b06ad5f1d1b63bc33eaa8566948a4f34169a7ee2f5cb3ca5f8b92e3dc5307"},
		{Uniform, 1 << 10, 7, 64, "61277f55caa63393df3065959498b41c91893b49fab4dfc6800d5828fd205ca8"},
		{Uniform, 1 << 16, 1, 32, "15f851cd8ee9f4c55a882dfb16fb61bda907b55ef9d194a97404c4aae7a45bba"},
		{Uniform, 1 << 16, 1, 64, "a9303771ee6d6a06f47c573d3ac3d9bad3cb3ec23f8cd4a847e338e6de4f7ef5"},
		{Uniform, 1 << 16, 7, 32, "604e9d885887c0dbd3fb330ad7728d90a17b4f668f99f73bfa9e2944e21c76da"},
		{Uniform, 1 << 16, 7, 64, "76687e01bf514d5c4f44d7b7c1b57a7c1f1215fc74152b89e87bc4629a5225d5"},
		{Uniform, 1 << 20, 1, 32, "c1b4094ccf2b39005fe4bf55ec84ad199682cf5d39a59be649150bb4a7259169"},
		{Uniform, 1 << 20, 1, 64, "d1a448d67a1b95b75fa4d585459d2d1206506264f99720e9404941ad0455e8f7"},
		{Uniform, 1 << 20, 7, 32, "8d0ef8c17f38395132fb340a30f439cdf26618fd484d92ba5bd96d507ffb057b"},
		{Uniform, 1 << 20, 7, 64, "3cc2803909309eb87ff5f62f0122ff1688b54a13d6a54b9c1642ff7bf8e680ff"},
		{Normal, 1 << 10, 1, 32, "c9234a1e0292cf1416bf357f2f32172a6896c2a045156f9ba96f3ba79127c027"},
		{Normal, 1 << 10, 1, 64, "9de522c7623772a752b8c1f45e610a7a61046cd0636ebec8b5dc5e4394334f09"},
		{Normal, 1 << 10, 7, 32, "d4e7209816a07cc5c6b19934d5d04b1dc2b4602bc8f5ae9ca48459d584c4eba2"},
		{Normal, 1 << 10, 7, 64, "67234bbc4ab3668f49845f6e1d7aff5c67982abbd3a3bcb1eea00e82ecfc08cf"},
		{Normal, 1 << 16, 1, 32, "3b64cc8e80b2cb00ca058d2515d70f23b50bdee69b07e073cf1abace9ef50078"},
		{Normal, 1 << 16, 1, 64, "3cba9a453db31316c4e600fc20762686ef909f07d901bf1051c7ffd1e8e7deb7"},
		{Normal, 1 << 16, 7, 32, "515cbd1109b37a9f0927097bd360f89f0a161bbfd073e2a36751907d6d5f6b51"},
		{Normal, 1 << 16, 7, 64, "34eb65ea4e5cadf81f4facbbf0d706bb9b94a4d3a60fa4a8900244af48d2582f"},
		{Normal, 1 << 20, 1, 32, "bb941f64ceff1e511d7e5a3db46e21ac7a3ae94d2da64265790500deed2f675d"},
		{Normal, 1 << 20, 1, 64, "bc23cf129e7f1250d6062bbb7d35786bce694036575838d0f406fed3908e23e5"},
		{Normal, 1 << 20, 7, 32, "46b7e0c2906e6fe2fc6405c0b7c119756c9713d9d1421ff3eff0a6267b72820e"},
		{Normal, 1 << 20, 7, 64, "e9927d6cc311f81093b6c9b25964a2cd1b3030388d2399019e44b8e6e66f1695"},
		{Zipf, 1 << 10, 1, 32, "f6a4cf4035297b9633554a4c94f288588fd7f11d2618f9b17b9e06120faae00d"},
		{Zipf, 1 << 10, 1, 64, "ed8c1cf38dfadf234327724f2b00cff542755401ddad3197d9ed9cf8a3da7b1b"},
		{Zipf, 1 << 10, 7, 32, "7d131eb1b165a14693fdb33545d8c038f0a67d8b4b6b70b6fb18318e1ff34e5a"},
		{Zipf, 1 << 10, 7, 64, "a81a46a812a267c23afe0672e9ce0188e1e4b10b77f67cbddeaf5e0bc53e7f73"},
	}
	for _, g := range golden {
		name := fmt.Sprintf("%v/n=%d/seed=%d/uint%d", g.d, g.n, g.seed, g.width)
		t.Run(name, func(t *testing.T) {
			if g.n > 1<<16 && testing.Short() {
				t.Skip("2^20-pair datasets skipped in -short mode")
			}
			var got string
			if g.width == 32 {
				got = datasetDigest[uint32](g.d, g.n, g.seed)
			} else {
				got = datasetDigest[uint64](g.d, g.n, g.seed)
			}
			if got != g.sum {
				t.Errorf("digest %s, want %s", got, g.sum)
			}
		})
	}
}
