package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one CPU-profile sample: its stack as function names, leaf
// first (inlined frames included), and the CPU nanoseconds it stands
// for.
type cpuSample struct {
	stack []string
	nanos int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what module attribution needs: each sample's
// stack of function names and its cpu/nanoseconds value.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs       []string
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location -> function ids, leaf first
		funcName   = map[uint64]int64{}    // function -> string index
		valueTypes []int64                 // sample_type type string indexes
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var typ int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, typ)
			return err
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	nanosIdx := -1
	for i, t := range valueTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			nanosIdx = i
		}
	}
	if nanosIdx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if nanosIdx >= len(s.vals) {
			continue
		}
		cs := cpuSample{nanos: s.vals[nanosIdx]}
		for _, l := range s.locs {
			for _, fid := range locLines[l] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// appendVarints appends a repeated varint field's values, whether the
// encoder packed them (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// pbFields walks the fields of one protobuf message, calling f with the
// field number, wire type, and the varint value or length-delimited
// bytes.
func pbFields(msg []byte, f func(field, wire int, v uint64, b []byte) error) error {
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
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
