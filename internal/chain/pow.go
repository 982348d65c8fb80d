package chain

import (
	"math/big"
)

// maxTarget is 2^256, the PoW target at difficulty 1.
var maxTarget = new(big.Int).Lsh(big.NewInt(1), 256)

// powTarget returns the threshold a block hash must be below at the
// given difficulty.
func powTarget(difficulty uint64) *big.Int {
	if difficulty == 0 {
		difficulty = 1
	}
	return new(big.Int).Div(maxTarget, new(big.Int).SetUint64(difficulty))
}

// CheckPoW reports whether the header's hash satisfies its difficulty.
func CheckPoW(h *Header) bool {
	hash := h.Hash()
	return new(big.Int).SetBytes(hash[:]).Cmp(powTarget(h.Difficulty)) < 0
}

// Mine searches nonces upward from startNonce until the header
// satisfies its difficulty, leaving the winning nonce in h.Nonce.
func Mine(h *Header, startNonce uint64) {
	target := powTarget(h.Difficulty)
	for h.Nonce = startNonce; ; h.Nonce++ {
		hash := h.Hash()
		if new(big.Int).SetBytes(hash[:]).Cmp(target) < 0 {
			return
		}
	}
}

// NextDifficulty computes a child block's required difficulty from its
// parent: a simplified Ethereum-homestead rule that nudges difficulty
// up when blocks arrive faster than the target interval and down when
// they arrive slower than twice the target, floored at min.
func NextDifficulty(parent *Header, childTimeMs uint64, targetIntervalMs uint64, min uint64) uint64 {
	if min == 0 {
		min = 1
	}
	d := parent.Difficulty
	step := d / 64
	if step == 0 {
		step = 1
	}
	dt := childTimeMs - parent.Time
	switch {
	case childTimeMs <= parent.Time || dt < targetIntervalMs:
		d += step
	case dt > 2*targetIntervalMs:
		if d > step {
			d -= step
		}
	}
	if d < min {
		d = min
	}
	return d
}
