package attack

import "math/big"

// ModExp is a fixed-window (4-bit) modular exponentiation victim — the
// square-and-multiply pattern of RSA/DH implementations. The multiplier
// table g^0..g^15 is the side-channel source: which entries an
// exponentiation touches (and how often) depends on the secret exponent's
// windows. The arithmetic is real (math/big); the cache trace reports the
// table lines each window multiplication reads. ModExpVictim runs it once,
// at construction, and replays the recorded table schedule per sample.
type ModExp struct {
	mod  *big.Int
	base *big.Int
	tbl  [16]*big.Int
	// TableBase is the line address of table entry 0; each entry of a
	// 512-bit operand spans one line (64 bytes), laid out contiguously
	// with entryLines lines per entry.
	TableBase  uint64
	entryLines uint64
	trace      func(line uint64)
}

// NewModExp prepares the window table for base g modulo mod. entryLines
// sets how many cache lines each table entry occupies (1 for 512-bit
// operands). trace (may be nil) observes table accesses.
func NewModExp(g, mod *big.Int, tableBase uint64, entryLines int, trace func(line uint64)) *ModExp {
	if entryLines < 1 {
		entryLines = 1
	}
	m := &ModExp{
		mod:        new(big.Int).Set(mod),
		base:       new(big.Int).Set(g),
		TableBase:  tableBase,
		entryLines: uint64(entryLines),
		trace:      trace,
	}
	m.tbl[0] = big.NewInt(1)
	for i := 1; i < 16; i++ {
		m.tbl[i] = new(big.Int).Mul(m.tbl[i-1], m.base)
		m.tbl[i].Mod(m.tbl[i], m.mod)
	}
	return m
}

// touchEntry reports the cache lines of table entry w.
func (m *ModExp) touchEntry(w int) {
	if m.trace == nil {
		return
	}
	base := m.TableBase + uint64(w)*m.entryLines
	for l := uint64(0); l < m.entryLines; l++ {
		m.trace(base + l)
	}
}

// Exp computes base^exp mod m using fixed 4-bit windows, reporting every
// table access. The result is cryptographically correct (validated against
// big.Int.Exp in tests).
func (m *ModExp) Exp(exp *big.Int) *big.Int {
	result := big.NewInt(1)
	bits := exp.BitLen()
	windows := (bits + 3) / 4
	for wi := windows - 1; wi >= 0; wi-- {
		// Four squarings per window.
		for s := 0; s < 4; s++ {
			result.Mul(result, result)
			result.Mod(result, m.mod)
		}
		// Extract window value.
		w := 0
		for b := 3; b >= 0; b-- {
			w <<= 1
			if exp.Bit(wi*4+b) != 0 {
				w |= 1
			}
		}
		// Fixed-window implementations read the table unconditionally;
		// the *line* touched depends on the secret window value.
		m.touchEntry(w)
		if w != 0 {
			result.Mul(result, m.tbl[w])
			result.Mod(result, m.mod)
		}
	}
	return result
}
