package main

import (
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/ssd"
)

// hostDevice sits between the open-loop replayer and the simulated
// device. On the host side the replay is a closed loop — each device
// call starts when the previous one returns — and hostDevice times every
// call in wall time. It also keeps the simulated service time each call
// returned, from which the exact per-request simulated latencies are
// rebuilt after the replay.
//
// With a traced scheme it additionally splits each call's wall time
// into scheme time and device self time, and attributes calls during
// which a garbage collection ran.
type hostDevice struct {
	dev *ssd.Device
	p   *tracedScheme // nil: untraced

	callNs  []int64
	service []time.Duration
	errors  int

	read, write, readSelf, writeSelf, gc span
}

// newHostDevice preallocates the per-call records so the measured
// replay allocates nothing on the benchmark's behalf; the caller attaches
// the device before the replay.
func newHostDevice(requests int) *hostDevice {
	return &hostDevice{
		callNs:  make([]int64, 0, requests),
		service: make([]time.Duration, 0, requests),
	}
}

func (h *hostDevice) Read(lpa addr.LPA, pages int) (time.Duration, error) {
	return h.call(false, lpa, pages)
}

func (h *hostDevice) Write(lpa addr.LPA, pages int) (time.Duration, error) {
	return h.call(true, lpa, pages)
}

func (h *hostDevice) Now() time.Duration        { return h.dev.Now() }
func (h *hostDevice) AdvanceTo(t time.Duration) { h.dev.AdvanceTo(t) }

func (h *hostDevice) call(write bool, lpa addr.LPA, pages int) (time.Duration, error) {
	if h.p != nil {
		return h.tracedCall(write, lpa, pages)
	}
	start := time.Now()
	var lat time.Duration
	var err error
	if write {
		lat, err = h.dev.Write(lpa, pages)
	} else {
		lat, err = h.dev.Read(lpa, pages)
	}
	h.note(time.Since(start), lat, err)
	return lat, err
}

func (h *hostDevice) tracedCall(write bool, lpa addr.LPA, pages int) (time.Duration, error) {
	gcRuns := h.dev.Stats().GCRuns
	inside := h.p.inside
	start := time.Now()
	var lat time.Duration
	var err error
	if write {
		lat, err = h.dev.Write(lpa, pages)
	} else {
		lat, err = h.dev.Read(lpa, pages)
	}
	d := time.Since(start)
	self := d - time.Duration(h.p.inside-inside)
	if write {
		h.write.add(d)
		h.writeSelf.add(self)
	} else {
		h.read.add(d)
		h.readSelf.add(self)
	}
	if h.dev.Stats().GCRuns != gcRuns {
		h.gc.add(d)
	}
	h.note(d, lat, err)
	return lat, err
}

func (h *hostDevice) note(wall, lat time.Duration, err error) {
	h.callNs = append(h.callNs, int64(wall))
	h.service = append(h.service, lat)
	if err != nil {
		h.errors++
	}
}
