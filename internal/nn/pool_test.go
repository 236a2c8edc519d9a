package nn

import (
	"testing"

	"fedca/internal/tensor"
)

// TestMaxPoolEvalForwardClearsTrainState is the regression test for the
// stale-argmax bug: a train-mode forward followed by an eval-mode forward
// must not leave the training pass's argmax/batch behind, or a subsequent
// Backward routes gradients with a stale batch's winner indices — or indexes
// out of bounds when the eval batch is smaller.
func TestMaxPoolEvalForwardClearsTrainState(t *testing.T) {
	p := NewMaxPool2DOf[float64](1, 4, 4, 2, 2)

	train := tensor.New(4, p.InDim())
	for i := range train.Data() {
		train.Data()[i] = float64(i % 13)
	}
	p.Forward(train, true)

	// Eval pass with a smaller batch — the classic shrinking-eval shape.
	eval := tensor.New(2, p.InDim())
	p.Forward(eval, false)

	defer func() {
		if recover() == nil {
			t.Fatal("Backward after an eval-mode forward must panic, not route stale gradients")
		}
	}()
	p.Backward(tensor.New(4, p.OutDim()))
}

// TestMaxPoolTrainAfterEvalStillWorks: eval passes in between training steps
// (the evaluation loop runs mid-round) must not break the next train step.
func TestMaxPoolTrainAfterEvalStillWorks(t *testing.T) {
	p := NewMaxPool2DOf[float64](1, 4, 4, 2, 2)
	x := tensor.New(2, p.InDim())
	for i := range x.Data() {
		x.Data()[i] = float64((i * 7) % 11)
	}
	p.Forward(x, true)
	p.Forward(x, false)
	p.Forward(x, true)
	dx := p.Backward(tensor.New(2, p.OutDim()))
	if dx.Dim(0) != 2 || dx.Dim(1) != p.InDim() {
		t.Fatalf("Backward shape %v after train→eval→train", dx.Shape())
	}
}
