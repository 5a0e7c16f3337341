package core

import (
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/probe"
	"mayacache/internal/rng"
)

// collidingLines returns families of lines whose members share one probe
// fingerprint: XORing the same value into a line's two low 16-bit chunks
// cancels in the fingerprint fold.
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

// scanLookup is the reference for lookup: a per-way scan of the
// authoritative tag entries in every skew's mapped set. decoys counts the
// valid ways scanned that carry the probed line's fingerprint but do not
// match — the SWAR candidates only verification rejects.
func (m *Maya) scanLookup(line uint64, sdid uint8) (ti int32, decoys int) {
	ti = -1
	for skew := 0; skew < m.skews; skew++ {
		base := m.setBase(skew, m.hasher.Index(skew, line))
		for w := int32(0); w < int32(m.ways); w++ {
			e := &m.tags[base+w]
			if e.state == stInvalid {
				continue
			}
			if e.line == line && e.sdid == sdid {
				if ti < 0 {
					ti = base + w
				}
			} else if probe.Fingerprint(e.line) == probe.Fingerprint(line) {
				decoys++
			}
		}
	}
	return ti, decoys
}

// TestSWARMatchesScan checks the SWAR lookup against the per-way scan on
// Maya and Maya-ISO at every step of a stream over fingerprint-colliding
// lines, so sets routinely hold ways the SWAR probe flags but must reject.
func TestSWARMatchesScan(t *testing.T) {
	for _, design := range []string{"Maya", "Maya-ISO"} {
		t.Run(design, func(t *testing.T) {
			llc, err := cachemodel.Build(design, cachemodel.BuildOptions{Cores: 1, SetsPerCore: 8, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			m := llc.(*Maya)
			lines := collidingLines(24, 8, 17)
			r := rng.New(23)
			decoys := 0
			check := func(line uint64, sdid uint8) {
				want, d := m.scanLookup(line, sdid)
				decoys += d
				if got := m.lookup(line, sdid); got != want {
					t.Fatalf("lookup(%#x, %d) = %d, per-way scan %d", line, sdid, got, want)
				}
			}
			for i := 0; i < 20000; i++ {
				a := cachemodel.Access{Line: lines[r.Intn(len(lines))], SDID: uint8(r.Intn(2))}
				if r.Intn(4) == 0 {
					a.Type = cachemodel.Writeback
				}
				check(a.Line, a.SDID)
				m.Access(a)
				check(lines[r.Intn(len(lines))], uint8(r.Intn(2)))
			}
			if decoys == 0 {
				t.Fatal("no fingerprint-colliding ways were probed; the stream proves nothing")
			}
			if err := m.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
