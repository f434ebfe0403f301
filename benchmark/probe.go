package main

import (
	"fmt"
	"io"
	"net"
	"sort"
	"time"
)

// hostProbe is the benchmark's speedometer for the host: a round trip
// over loopback TCP between two goroutines of the benchmark itself,
// with the frame sizes of the served protocol and, on the echoing side,
// a few dependent loads from a table larger than the CPU's private
// caches - the shape of a cache lookup behind a socket. It runs on the
// CPU the measured processes run on and shares nothing with the code
// under test, so what moves its round-trip time is the host: on the
// shared VM this was written on, the same binary runs up to 60% slower
// for tenths of a second to minutes at a time, and the probe's round
// trip slows with it (correlation 0.97 over the slices of a disturbed
// run).
type hostProbe struct {
	ln net.Listener
	c  net.Conn
	in [reqLen]byte
	re [respLen]byte
}

// probeRefNs is the probe's median round trip on that VM when nothing
// disturbs it. Every time-based end-to-end metric is scaled by
// probeRefNs / (the probe's round trip while it was measured): it reads
// as if the host had run at this speed throughout. The constant sets
// the scale only; on another machine every figure of parent and change
// moves by the same factor. loadgen.host_speed reports the factor.
const probeRefNs = 7700

const (
	probeTrips = 120     // round trips per reading, about 1 ms
	probeLoads = 8       // dependent loads per echo
	probeTable = 8 << 20 // table entries: 32 MiB, beyond the 4 MiB L2
)

func startHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	// The echo goroutine ends when either end of its connection is
	// closed, or, if nothing ever connected, when the listener is.
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		table := make([]uint32, probeTable)
		for i := range table {
			table[i] = uint32(i) // touch every page: untouched ones all map to one zero page
		}
		var in [reqLen]byte
		var re [respLen]byte
		at := uint32(1)
		for {
			if _, err := io.ReadFull(c, in[:]); err != nil {
				return
			}
			for k := 0; k < probeLoads; k++ {
				at = at*1664525 + 1013904223 + table[at%probeTable]
			}
			re[2] = byte(at)
			if _, err := c.Write(re[:]); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("host probe: %w", err)
	}
	return &hostProbe{ln: ln, c: c}, nil
}

func (p *hostProbe) close() {
	p.c.Close()
	p.ln.Close()
}

// read returns the median of probeTrips round trips, in nanoseconds.
func (p *hostProbe) read() (float64, error) {
	var rtt [probeTrips]int64
	_ = p.c.SetDeadline(time.Now().Add(replyTimeout))
	for i := range rtt {
		t0 := time.Now()
		if _, err := p.c.Write(p.in[:]); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
		if _, err := io.ReadFull(p.c, p.re[:]); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
		rtt[i] = time.Since(t0).Nanoseconds()
	}
	s := rtt[:]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[probeTrips/2]), nil
}

// refClock measures elapsed time at reference host speed: between two
// readings of the probe, wall time counts for probeRefNs / (the mean of
// the two round trips) of itself.
type refClock struct {
	probe   *hostProbe
	last    time.Time
	lastRTT float64
	seconds float64 // elapsed, at reference speed
	err     error   // the first failed reading; the clock stops there
}

func startRefClock(p *hostProbe) *refClock {
	k := &refClock{probe: p}
	k.lastRTT, k.err = p.read()
	k.last = time.Now()
	return k
}

// tick takes a reading and accounts for the time since the last one.
func (k *refClock) tick() {
	if k.err != nil {
		return
	}
	rtt, err := k.probe.read()
	if err != nil {
		k.err = err
		return
	}
	now := time.Now()
	k.seconds += now.Sub(k.last).Seconds() * 2 * probeRefNs / (rtt + k.lastRTT)
	k.last, k.lastRTT = now, rtt
}
