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

// This file decodes the CPU profiles runtime/pprof writes (gzipped
// profile.proto) far enough to fold their samples by package. The
// standard library has no profile parser, and the benchmark imports
// nothing outside it.

// profileSample is one CPU-profile sample: its call stack as function
// names, innermost frame (inlined callees included) first, and its CPU
// time in nanoseconds.
type profileSample struct {
	stack  []string
	weight int64
}

// decodeProfile parses a gzipped profile.proto into samples, weighting
// each by its "cpu" value (the last value when no sample type says cpu).
func decodeProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs        []string
		sampleTypes []int64 // string-table index of each value's type
		rawSamples  [][]byte
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> string-table index
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return protoFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			rawSamples = append(rawSamples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return protoFields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			err := protoFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	valueIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}

	samples := make([]profileSample, 0, len(rawSamples))
	for _, sb := range rawSamples {
		var locs []uint64
		var values []int64
		err := protoFields(sb, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				if b == nil {
					locs = append(locs, v)
					return nil
				}
				return packedVarints(b, func(v uint64) { locs = append(locs, v) })
			case 2:
				if b == nil {
					values = append(values, int64(v))
					return nil
				}
				return packedVarints(b, func(v uint64) { values = append(values, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		s := profileSample{weight: 1}
		if valueIdx >= 0 && valueIdx < len(values) {
			s.weight = values[valueIdx]
		}
		for _, l := range locs {
			for _, f := range locLines[l] {
				s.stack = append(s.stack, str(funcNames[f]))
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// foldByPackage gives each sample to the innermost frame of a
// repro/internal package on its stack, so runtime work a package causes
// (map operations, allocation) counts toward that package. Samples with
// no such frame go to "runtime.gc" when a garbage-collector frame is on
// the stack and to "other" otherwise. The result maps bucket to its
// share of total sample weight.
func foldByPackage(samples []profileSample) map[string]float64 {
	const prefix = "repro/internal/"
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		bucket := "other"
		for _, fn := range s.stack {
			if rest, ok := strings.CutPrefix(fn, prefix); ok {
				if i := strings.IndexAny(rest, "./"); i >= 0 {
					rest = rest[:i]
				}
				bucket = rest
				break
			}
			if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
				bucket = "runtime.gc"
			}
		}
		shares[bucket] += float64(s.weight)
		total += float64(s.weight)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields walks the top-level fields of one protobuf message. For
// varint fields fn gets the value and a nil slice; for length-delimited
// fields it gets the bytes. Fixed-width fields are skipped.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// packedVarints decodes a packed repeated varint field.
func packedVarints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		fn(v)
	}
	return nil
}
