// Package simnet models the network of the emulated FL deployment in virtual
// time: each client has a dedicated shaped link to the server (the paper
// shapes every client to 13.7 Mbps with wondershaper, following FedScale's
// average mobile bandwidth; the server's 10 Gbps ingress is never the
// bottleneck and is not modelled).
//
// A Link serializes its transfers FIFO: an eager layer transmission started
// mid-round occupies the uplink until done, and the end-of-round upload
// queues behind it — exactly the overlap arithmetic FedCA exploits.
//
// Links can additionally carry impairment windows (bandwidth degradation or
// complete outage over a virtual-time interval, see Impair) and model
// transfer failures with retransmission (TransferAttempts). Both are driven
// by the deterministic fault plans of internal/chaos.
package simnet

import (
	"fmt"
	"math"
)

// DefaultClientBandwidth is 13.7 Mbps in bytes/second (paper Sec. 5.1).
const DefaultClientBandwidth = 13.7e6 / 8

// impairment scales the link's bandwidth within [from, to): 0 = outage.
type impairment struct {
	from, to float64
	scale    float64
}

// TransferObserver receives link activity for telemetry. Observers are
// passive: they see times the link already computed and must not mutate the
// link, so an observed link behaves bit-identically to an unobserved one.
// Calls happen on whichever goroutine drives the link (one per client round),
// so a shared observer must be internally synchronized.
type TransferObserver interface {
	// ObserveTransfer fires once per enqueued transfer: service start, final
	// completion, per-attempt payload bytes and the number of attempts.
	ObserveTransfer(start, end, bytes float64, attempts int)
	// ObserveImpairment fires when an impairment window is installed.
	ObserveImpairment(from, to, scale float64)
}

// Link is a FIFO point-to-point link with fixed bandwidth and per-transfer
// latency. Transfers must be enqueued in nondecreasing time order (the
// simulator's per-client timelines guarantee this).
type Link struct {
	Bandwidth float64 // bytes per second
	Latency   float64 // seconds added to every transfer

	// Observer, when non-nil, is notified of transfers and impairment
	// windows. Purely observational; nil costs nothing.
	Observer TransferObserver

	free        float64 // time at which the link is next idle
	lastEnqueue float64
	bytesSent   float64
	transfers   int
	retries     int

	impairments []impairment
}

// NewLink creates a link. Bandwidth must be positive.
func NewLink(bandwidth, latency float64) *Link {
	if bandwidth <= 0 {
		panic("simnet: bandwidth must be positive")
	}
	if latency < 0 {
		panic("simnet: latency must be non-negative")
	}
	return &Link{Bandwidth: bandwidth, Latency: latency}
}

// Impair scales the link's bandwidth by scale within [from, to) virtual
// seconds: scale 0 is a complete outage (service pauses and resumes), values
// in (0, 1) degrade throughput, to may be +Inf. Overlapping windows compound
// multiplicatively. ResetAt clears all impairments, so a round installs its
// fault windows fresh after the round-start reset.
func (l *Link) Impair(from, to, scale float64) {
	if scale < 0 || scale > 1 || math.IsNaN(scale) {
		panic("simnet: impairment scale must be in [0,1]")
	}
	if to <= from {
		panic("simnet: impairment window must end after it starts")
	}
	if scale == 0 && math.IsInf(to, 1) {
		panic("simnet: permanent outage would never complete a transfer")
	}
	l.impairments = append(l.impairments, impairment{from: from, to: to, scale: scale})
	if l.Observer != nil {
		l.Observer.ObserveImpairment(from, to, scale)
	}
}

// rateAt returns the effective service rate at time t and the next time at
// which the rate may change (+Inf when no boundary lies ahead).
func (l *Link) rateAt(t float64) (rate, until float64) {
	scale := 1.0
	until = math.Inf(1)
	for _, w := range l.impairments {
		switch {
		case t >= w.from && t < w.to:
			scale *= w.scale
			if w.to < until {
				until = w.to
			}
		case w.from > t && w.from < until:
			until = w.from
		}
	}
	return l.Bandwidth * scale, until
}

// serve returns the completion time of a payload of the given size whose
// service starts at time t, honouring the latency and impairment windows.
func (l *Link) serve(t, bytes float64) float64 {
	t += l.Latency
	remaining := bytes
	for remaining > 0 {
		rate, until := l.rateAt(t)
		if rate <= 0 {
			// Outage: no progress until the window closes (Impair rejects
			// permanent outages, so until is finite here).
			t = until
			continue
		}
		dt := remaining / rate
		if t+dt <= until {
			return t + dt
		}
		remaining -= (until - t) * rate
		t = until
	}
	return t
}

// TransferAttempts enqueues a transfer needing the given number of
// transmission attempts: the first attempts-1 fail after consuming their full
// airtime and are retransmitted back to back; the last succeeds. It returns
// when the first attempt starts and the last completes. Byte accounting
// charges every attempt (that traffic was really carried).
func (l *Link) TransferAttempts(enqueue, bytes float64, attempts int) (start, end float64) {
	if bytes < 0 {
		panic("simnet: negative transfer size")
	}
	if enqueue < l.lastEnqueue {
		panic(fmt.Sprintf("simnet: transfer enqueued at %v before previous enqueue %v", enqueue, l.lastEnqueue))
	}
	if attempts < 1 {
		attempts = 1
	}
	l.lastEnqueue = enqueue
	start = enqueue
	if l.free > start {
		start = l.free
	}
	end = start
	for a := 0; a < attempts; a++ {
		end = l.serve(end, bytes)
		l.bytesSent += bytes
		l.transfers++
	}
	l.retries += attempts - 1
	l.free = end
	if l.Observer != nil {
		l.Observer.ObserveTransfer(start, end, bytes, attempts)
	}
	return start, end
}

// ResetAt abandons any in-flight transfer, clears all impairment windows and
// marks the link idle at time t. The FL round barrier uses this: a straggler
// whose upload was not collected aborts it and starts the next round fresh,
// and the next round installs its own fault windows. Byte accounting is
// preserved.
func (l *Link) ResetAt(t float64) {
	l.free = t
	l.lastEnqueue = t
	l.impairments = l.impairments[:0]
}

// Duration returns the service time of a transfer of the given size on an
// idle, unimpaired link (latency + bytes/bandwidth), without enqueueing
// anything.
func (l *Link) Duration(bytes float64) float64 {
	return l.Latency + bytes/l.Bandwidth
}

// FreeAt returns the time the link next becomes idle.
func (l *Link) FreeAt() float64 { return l.free }

// BytesSent returns the cumulative payload bytes carried, including failed
// attempts.
func (l *Link) BytesSent() float64 { return l.bytesSent }

// Transfers returns the number of transmission attempts carried.
func (l *Link) Transfers() int { return l.transfers }

// Retries returns the cumulative number of failed attempts that were
// retransmitted.
func (l *Link) Retries() int { return l.retries }
