package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes just enough of the gzipped profile.proto that
// runtime/pprof writes to roll CPU time up by package, without a
// dependency on the pprof module.

// layerOf names the layer a sample's time belongs to: the innermost frame
// of dbpsim/internal/<pkg> gives <pkg>; a frame of the benchmark itself
// (package main, named by its import path in a test binary) gives
// "harness"; a stack with neither (background GC, the
// scheduler) gives "runtime". Standard-library and runtime frames called
// from simulator code (map lookups, math/rand, allocation) are charged to
// the package that called them.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "dbpsim/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "dbpsim/perfbench.") {
			return "harness"
		}
	}
	return "runtime"
}

// cpuByLayer decodes a CPU profile and returns nanoseconds per layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     []int64 // sample_type[i].type string index
		samples   [][]byte
		locations = map[uint64][]uint64{} // location id → function ids, leaf first
		functions = map[uint64]int64{}    // function id → name string index
	)
	err = eachField(raw, func(num, _ int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2:
			samples = append(samples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			functions[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	valueIdx := len(types) - 1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := map[string]int64{}
	for _, sb := range samples {
		var locs []uint64
		var vals []int64
		err := eachField(sb, func(n, wire int, v uint64, b []byte) error {
			switch n {
			case 1:
				return eachVarint(wire, v, b, func(x uint64) { locs = append(locs, x) })
			case 2:
				return eachVarint(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valueIdx >= len(vals) {
			continue
		}
		var stack []string
		for _, l := range locs {
			for _, f := range locations[l] {
				if s := functions[f]; s >= 0 && int(s) < len(strs) {
					stack = append(stack, strs[s])
				}
			}
		}
		out[layerOf(stack)] += vals[valueIdx]
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire types 0, 1, 5) or payload (wire
// type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed or not.
func eachVarint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
