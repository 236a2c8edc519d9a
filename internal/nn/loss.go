package nn

import (
	"math"

	"fedca/internal/tensor"
)

// SoftmaxCrossEntropyInto computes the mean cross-entropy loss of logits
// [B, C] against integer labels and writes the gradient dL/dlogits into
// dlogits in the same pass (the fused softmax-CE backward: (softmax −
// onehot)/B). The log-sum-exp runs in float64 for both dtypes; a float32
// network rounds the gradient on store. The destination is the caller's
// (typically arena-allocated), so the loss adds nothing to the steady-state
// allocation count.
func SoftmaxCrossEntropyInto[F tensor.Float](logits *tensor.TensorOf[F], labels []int, dlogits *tensor.TensorOf[F]) float64 {
	batch, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != batch {
		panic("nn: SoftmaxCrossEntropy labels length mismatch")
	}
	if !dlogits.SameShape(logits) {
		panic("nn: SoftmaxCrossEntropyInto dlogits shape mismatch")
	}
	ld, dd := logits.Data(), dlogits.Data()
	loss := 0.0
	invB := 1.0 / float64(batch)
	for b := 0; b < batch; b++ {
		row := ld[b*classes : (b+1)*classes]
		// log-sum-exp with max subtraction for stability
		maxv := float64(row[0])
		for _, v := range row[1:] {
			if float64(v) > maxv {
				maxv = float64(v)
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(float64(v) - maxv)
		}
		logZ := maxv + math.Log(sum)
		y := labels[b]
		if y < 0 || y >= classes {
			panic("nn: SoftmaxCrossEntropy label out of range")
		}
		loss += float64((logZ - float64(row[y])) * invB) // rounded before it is added: never fused
		drow := dd[b*classes : (b+1)*classes]
		for j, v := range row {
			drow[j] = F(math.Exp(float64(v)-logZ) * invB)
		}
		drow[y] -= F(invB)
	}
	return loss
}
