package baseline

import (
	"fmt"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/probe"
	"mayacache/internal/rng"
)

// collidingLines returns families of lines whose members share one probe
// fingerprint: XORing the same value into a line's two low 16-bit chunks
// cancels in the fingerprint fold. Members differ only above bit 15, so a
// family also shares its physically indexed set.
func collidingLines(families, members int, seed uint64) []uint64 {
	r := rng.New(seed)
	lines := make([]uint64, 0, families*members)
	for f := 0; f < families; f++ {
		base := r.Uint64() >> 8
		for k := 0; k < members; k++ {
			lines = append(lines, base^uint64(k)*0x10001)
		}
	}
	return lines
}

// scanSet is the per-way reference for one access to SetAssoc: over the
// authoritative lineArr/meta entries of the line's set it finds the
// matching way, or else the first invalid way (-1 for either when there
// is none). decoys counts valid ways with the line's fingerprint that do
// not match.
func (c *SetAssoc) scanSet(line uint64, sdid uint8) (hit, free, decoys int) {
	hit, free = -1, -1
	base := c.index(line) * c.ways
	for w := 0; w < c.ways; w++ {
		mv := c.meta[base+w]
		switch {
		case mv&metaValid == 0:
			if free < 0 {
				free = w
			}
		case c.lineArr[base+w] == line && (!c.cfg.MatchSDID || metaSDID(mv) == sdid):
			if hit < 0 {
				hit = w
			}
		case probe.Fingerprint(c.lineArr[base+w]) == probe.Fingerprint(line):
			decoys++
		}
	}
	return hit, free, decoys
}

// TestSWARMatchesScan checks SetAssoc's SWAR hit probe and its SWAR
// free-way pick against the per-way scan, over fingerprint-colliding
// lines and way counts with and without padding lanes.
func TestSWARMatchesScan(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 4, Ways: 16, Replacement: SRRIP, MatchSDID: true},
		{Sets: 4, Ways: 6, Replacement: LRU},
		{Sets: 2, Ways: 5, Replacement: RandomRepl, MatchSDID: true},
	} {
		t.Run(fmt.Sprintf("%dx%d", cfg.Sets, cfg.Ways), func(t *testing.T) {
			c, err := NewChecked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lines := collidingLines(6, 8, 31)
			r := rng.New(37)
			decoys, frees := 0, 0
			for i := 0; i < 20000; i++ {
				a := cachemodel.Access{Line: lines[r.Intn(len(lines))], SDID: uint8(r.Intn(2))}
				if r.Intn(4) == 0 {
					a.Type = cachemodel.Writeback
				}
				if r.Intn(8) == 0 {
					c.Flush(a.Line, a.SDID) // keep free ways appearing
				}
				hit, free, d := c.scanSet(a.Line, a.SDID)
				decoys += d
				res := c.Access(a)
				if res.TagHit != (hit >= 0) {
					t.Fatalf("access %d (%#x, sdid %d): hit %v, per-way scan found way %d", i, a.Line, a.SDID, res.TagHit, hit)
				}
				base := c.index(a.Line) * c.ways
				switch {
				case hit >= 0:
				case free >= 0:
					frees++
					if c.lineArr[base+free] != a.Line || c.meta[base+free]&metaValid == 0 {
						t.Fatalf("access %d (%#x): miss did not fill the first free way %d", i, a.Line, free)
					}
					if res.SAE {
						t.Fatalf("access %d: SAE with free way %d", i, free)
					}
				case !res.SAE:
					t.Fatalf("access %d: full-set miss reported no eviction", i)
				}
			}
			if decoys == 0 || frees == 0 {
				t.Fatalf("stream probed %d colliding ways and %d free-way fills; want both > 0", decoys, frees)
			}
		})
	}
}
