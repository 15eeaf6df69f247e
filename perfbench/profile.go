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

// modulePrefix is the import-path prefix of the simulator's packages.
// A CPU sample is charged to the innermost frame under it whose package
// is a measured layer (see layers); samples with no such frame are
// charged to "runtime" (GC, scheduler, allocator, stdlib called from the
// runtime), and perfbench's own frames (package main) to "bench".
const modulePrefix = "abc/internal/"

// layers are the simulator packages measured as layers. Frames of other
// module packages (obs, prof, topk: off the run path) are skipped, so a
// sample in them is charged to the next enclosing measured layer.
var layers = []string{
	"sim", "cc", "abc", "explicit", "qdisc", "sched", "netem", "trace",
	"topo", "packet", "metrics", "fluid", "app", "wifi", "exp",
}

// layerOf maps a function name from a profile to its layer, or "" when
// the frame belongs to no layer (standard library, runtime, skipped
// module packages).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range layers {
		if pkg == l {
			return l
		}
	}
	return ""
}

// bucketProfile decodes a CPU profile as written by runtime/pprof
// (gzipped profile.proto) and returns CPU seconds per layer. Every
// sample lands in exactly one bucket, so the buckets sum to the
// profile's total CPU time.
func bucketProfile(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	funcLayer := make(map[uint64]string, len(p.funcName))
	for id, nameIdx := range p.funcName {
		if nameIdx < 0 || int(nameIdx) >= len(p.strings) {
			return nil, fmt.Errorf("profile: function %d: bad name index %d", id, nameIdx)
		}
		funcLayer[id] = layerOf(p.strings[nameIdx])
	}
	// valueIdx selects the CPU-nanoseconds column (sample_type
	// "cpu/nanoseconds"; column 0 is the sample count).
	valueIdx := -1
	for i, st := range p.sampleTypes {
		if st == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a CPU value")
		}
		layer := "runtime"
	frames:
		// Locations are leaf first; within one location the inlined
		// callee comes first and its caller last.
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := funcLayer[fn]; l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += float64(s.values[valueIdx]) / 1e9
	}
	return out, nil
}

// profile is the part of profile.proto bucketing needs.
type profile struct {
	sampleTypes []string // unit of each sample value column
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]int64    // function id -> string table index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the fields of a profile.proto message that
// bucketing reads: sample_type (1), sample (2), location (4), function
// (5) and string_table (6). Other fields are skipped.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	var unitIdx []int64
	err := eachField(b, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case 1: // ValueType{type = 1, unit = 2}
			var unit int64
			err := eachField(msg, func(n, _ int, v uint64, _ []byte) error {
				if n == 2 {
					unit = int64(v)
				}
				return nil
			})
			unitIdx = append(unitIdx, unit)
			return err
		case 2: // Sample{location_id = 1, value = 2}
			var s sample
			err := eachField(msg, func(n, w int, v uint64, m []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, m, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, m, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location{id = 1, line = 4 {function_id = 1}}
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n, _ int, v uint64, m []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(m, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function{id = 1, name = 2}
			var id uint64
			var name int64
			err := eachField(msg, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range unitIdx {
		if u < 0 || int(u) >= len(p.strings) {
			return nil, fmt.Errorf("profile: bad unit index %d", u)
		}
		p.sampleTypes = append(p.sampleTypes, p.strings[u])
	}
	return p, nil
}

// appendVarints feeds a repeated varint field to add, in either its
// packed (wire type 2) or unpacked (wire type 0) encoding.
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
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
				return errors.New("profile: bad length-delimited field")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
