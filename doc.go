// Package fedca is a from-scratch Go reproduction of "FedCA: Efficient
// Federated Learning with Client Autonomy" (Lyu et al., ICPP 2024).
//
// The repository contains the complete system the paper describes plus every
// substrate it depends on: a small neural-network training stack (tensors,
// hand-written backprop for dense/conv/pooling/batch-norm/residual/LSTM
// layers, SGD), synthetic non-IID federated datasets (Dirichlet α = 0.1),
// a virtual-time cluster simulator (FedScale-like speed heterogeneity, the
// paper's gamma fast/slow dynamicity, 13.7 Mbps shaped links, client
// dropout — virtual time is per-client arithmetic on each client's compute
// model and links, no event engine), the FedAvg round engine with partial
// aggregation, the FedProx, FedAda, Oort-style and SAFA-style baselines,
// QSGD/top-k upload compression, and FedCA itself — the
// statistical-progress metric, periodical-sampling profiler, net-benefit
// early stopping and layerwise eager transmission with error-feedback
// retransmission (plus the Sec. 6 future-work adaptive-LR autonomy).
//
// This package is the public facade: build a Federation with New(Options)
// and drive it with Run/RunRound/RunToAccuracy. Deeper entry points:
//
//   - internal/core        — the FedCA mechanism (paper Secs. 3–4)
//   - internal/fl          — the federated round engine and Scheme interface
//   - internal/experiments — regenerates every table/figure of Sec. 5
//   - introspect           — the live HTTP introspection surface over a run's
//     telemetry sink and journal (the only library package importing net/http)
//   - cmd/fedca-sim        — run one simulation (-log writes JSONL)
//   - cmd/fedca-bench      — regenerate paper artifacts (-exp table1 …)
//   - cmd/fedca-plot       — ASCII charts from run logs
//   - example_test.go      — checked examples of this package's API
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results.
package fedca
