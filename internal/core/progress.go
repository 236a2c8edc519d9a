// Package core implements FedCA — Federated Learning with Client Autonomy —
// as described in Lyu et al., ICPP 2024: the statistical-progress metric
// (Eq. 1), the periodical-sampling profiler (Sec. 4.1), net-benefit early
// stopping (Sec. 4.2, Eqs. 2–4) and layerwise eager transmission with
// error-feedback retransmission (Sec. 4.3, Eqs. 5–6). The Scheme type plugs
// into internal/fl's round loop.
package core

import (
	"math"
)

// Progress computes the paper's statistical-progress metric (Eq. 1) between
// an intermediate accumulated update gi and the full-round update gk:
//
//	P = cos(gi, gk) · min(‖gi‖, ‖gk‖) / max(‖gi‖, ‖gk‖)
//
// P ≤ 1 always, and P → 1 as gi → gk. Degenerate cases: two zero vectors are
// identical (P = 1); one zero vector has no direction in common (P = 0).
func Progress(gi, gk []float64) float64 {
	if len(gi) != len(gk) {
		panic("core: Progress length mismatch")
	}
	var dot, ni, nk float64
	for j := range gi {
		dot += gi[j] * gk[j]
		ni += gi[j] * gi[j]
		nk += gk[j] * gk[j]
	}
	if ni == 0 && nk == 0 {
		return 1
	}
	if ni == 0 || nk == 0 {
		return 0
	}
	ni, nk = math.Sqrt(ni), math.Sqrt(nk)
	cos := dot / (ni * nk)
	ratio := ni / nk
	if ratio > 1 {
		ratio = 1 / ratio
	}
	return cos * ratio
}

// ProgressCurve computes P_τ for τ = 1..K given the per-iteration cumulative
// update snapshots (snaps[τ-1] is G_τ); the last snapshot is the reference
// G_K. Returned slice is 0-indexed by τ-1.
func ProgressCurve(snaps [][]float64) []float64 {
	k := len(snaps)
	if k == 0 {
		return nil
	}
	ref := snaps[k-1]
	out := make([]float64, k)
	for i, s := range snaps {
		out[i] = Progress(s, ref)
	}
	return out
}

// Curves holds the profiled statistical-progress curves of one anchor round:
// the model-level curve and one per layer, each of length K (index τ-1).
type Curves struct {
	Round int // the anchor round these curves were profiled in
	Model []float64
	Layer [][]float64
}

// At returns the model-level P_{T,τ} (1-based τ), clamping τ to [1, K].
func (c *Curves) At(tau int) float64 { return at(c.Model, tau) }

// LayerAt returns layer l's P^(l)_{T,τ} (1-based τ), clamped.
func (c *Curves) LayerAt(l, tau int) float64 { return at(c.Layer[l], tau) }

func at(curve []float64, tau int) float64 {
	if len(curve) == 0 {
		return 0
	}
	if tau < 1 {
		return 0 // P_0 = 0: no update accumulated yet
	}
	if tau > len(curve) {
		tau = len(curve)
	}
	return curve[tau-1]
}

// CosineSimilarity is the plain cosine of two flat vectors, used by the
// retransmission check (Eq. 6). Degenerate conventions match Progress.
func CosineSimilarity(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("core: CosineSimilarity length mismatch")
	}
	var dot, na, nb float64
	for j := range a {
		dot += a[j] * b[j]
		na += a[j] * a[j]
		nb += b[j] * b[j]
	}
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
