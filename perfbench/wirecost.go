package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"plb/internal/transport"
	"plb/internal/wire"
)

// codecRounds is how many passes over a kind's captured frames each
// codec timing makes; a pass is a few microseconds, so the clock reads
// around it are negligible.
const codecRounds = 200

// codecCost is the measured cost of one kind's captured frames.
type codecCost struct {
	frames                    int
	encodeNs, decodeNs, bytes float64
	allocs                    float64
}

// measureCodec times wire.AppendMessage the way socktrans.Send calls
// it (into a fresh buffer) and wire.DecodeMessage on the encoded
// bodies, and checks that every frame decodes back to itself.
func measureCodec(msgs []transport.Message) (codecCost, error) {
	c := codecCost{frames: len(msgs)}
	bodies := make([][]byte, len(msgs))
	for i, m := range msgs {
		b, err := wire.AppendMessage(nil, m)
		if err != nil {
			return c, fmt.Errorf("wire: encode captured %s frame: %w", m.Kind, err)
		}
		got, err := wire.DecodeMessage(b)
		if err != nil {
			return c, fmt.Errorf("wire: decode captured %s frame: %w", m.Kind, err)
		}
		if !sameMessage(got, m) {
			return c, fmt.Errorf("wire: %s frame does not round-trip: sent %+v, decoded %+v", m.Kind, m, got)
		}
		bodies[i] = b
		c.bytes += float64(4 + len(b)) // the length prefix rides every frame
	}
	n := float64(len(msgs) * codecRounds)
	c.bytes /= float64(len(msgs))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t := time.Now()
	for r := 0; r < codecRounds; r++ {
		for _, m := range msgs {
			if _, err := wire.AppendMessage(nil, m); err != nil {
				return c, err
			}
		}
	}
	c.encodeNs = float64(time.Since(t).Nanoseconds()) / n
	t = time.Now()
	for r := 0; r < codecRounds; r++ {
		for _, b := range bodies {
			if _, err := wire.DecodeMessage(b); err != nil {
				return c, err
			}
		}
	}
	c.decodeNs = float64(time.Since(t).Nanoseconds()) / n
	runtime.ReadMemStats(&ms1)
	c.allocs = float64(ms1.Mallocs-ms0.Mallocs) / n
	return c, nil
}

// sameMessage compares a decoded frame with its original, treating nil
// and empty task blocks and blobs alike.
func sameMessage(a, b transport.Message) bool {
	if a.From != b.From || a.To != b.To || a.Kind != b.Kind || a.A != b.A || a.B != b.B {
		return false
	}
	if len(a.Tasks) != len(b.Tasks) || len(a.Blob) != len(b.Blob) {
		return false
	}
	return len(a.Tasks) == 0 || reflect.DeepEqual(a.Tasks, b.Tasks)
}

// checkWire measures the codec on the frame mix a traced run captured
// and sets the wire metrics: per kind, and over the mix weighted by
// how often each kind was sent.
func checkWire(r *run, tk *tracker) error {
	tk.mu.Lock()
	captured, sent := tk.captured, tk.kindSent
	tk.mu.Unlock()
	var total codecCost
	var weight float64
	fmt.Printf("\nwire codec on captured frames:\n\n| kind | frames | encode ns | decode ns | bytes | allocs |\n|---|---:|---:|---:|---:|---:|\n")
	for _, name := range frameKinds {
		var msgs []transport.Message
		var kind transport.Kind
		for k, ms := range captured {
			if k.String() == name {
				msgs, kind = ms, k
			}
		}
		if len(msgs) == 0 {
			continue
		}
		c, err := measureCodec(msgs)
		if err != nil {
			return err
		}
		fmt.Printf("| %s | %d | %.1f | %.1f | %.1f | %.2f |\n", name, c.frames, c.encodeNs, c.decodeNs, c.bytes, c.allocs)
		r.set("wire.encode_ns."+name, c.encodeNs)
		r.set("wire.decode_ns."+name, c.decodeNs)
		r.set("wire.bytes_per_frame."+name, c.bytes)
		r.set("wire.allocs_per_frame."+name, c.allocs)
		w := float64(sent[kind])
		weight += w
		total.frames += c.frames
		total.encodeNs += w * c.encodeNs
		total.decodeNs += w * c.decodeNs
		total.bytes += w * c.bytes
		total.allocs += w * c.allocs
	}
	if total.frames == 0 {
		return fmt.Errorf("wire: the traced run captured no frames")
	}
	r.set("wire.encode_ns", total.encodeNs/weight)
	r.set("wire.decode_ns", total.decodeNs/weight)
	r.set("wire.bytes_per_frame", total.bytes/weight)
	r.set("wire.allocs_per_frame", total.allocs/weight)
	return nil
}
