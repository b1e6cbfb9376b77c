package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a runtime/pprof CPU profile the layer fold
// needs: each sample's stack as function names, leaf first, its count
// and its CPU nanoseconds.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	stack []string
	count int // profiling signals behind this record
	ns    int64
}

// parseCPUProfile decodes a gzipped profile.proto message as written
// by runtime/pprof. Only the fields the fold reads are decoded:
// Profile.sample (2), location (4), function (5) and string_table (6);
// Sample.location_id (1) and value (2); Location.id (1) and line (4);
// Line.function_id (1); Function.id (1) and name (2). Inlined frames
// expand in place, innermost first, as the format orders them.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]int64{}    // function id → string index
		strs     []string
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s rawSample
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return protoUints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return protoUints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	p := &cpuProfile{}
	for _, s := range samples {
		// CPU profiles carry [sample count, cpu nanoseconds].
		if len(s.values) != 2 {
			return nil, fmt.Errorf("profile: sample has %d values, want 2", len(s.values))
		}
		ps := profSample{count: int(s.values[0]), ns: s.values[1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d has no name", fn)
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// protoFields calls fn for every field of a protobuf message: v holds
// a varint or fixed value, b a length-delimited payload.
func protoFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// protoUints reads a repeated integer field in either encoding: one
// varint per field, or packed into a length-delimited payload.
func protoUints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
