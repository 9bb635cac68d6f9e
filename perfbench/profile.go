package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto. The
// benchmark needs only each sample's stack of function names and its
// CPU time, so it decodes those few fields by hand rather than pull in
// a protobuf library. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

// stackSample is one profile sample: function names from the leaf
// frame outwards (inlined frames included) and the CPU nanoseconds it
// stands for.
type stackSample struct {
	funcs []string
	nanos int64
}

// decodeProfile parses a gzipped CPU profile into stack samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
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
		samples []rawSample
		strs    []string
		locLine = map[uint64][]uint64{} // location id -> function ids, leaf first
		funName = map[uint64]int64{}    // function id -> string index
	)
	err = forFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return forFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLine[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ss := stackSample{nanos: s.values[1]}
		for _, loc := range s.locs {
			for _, fn := range locLine[loc] {
				idx := funName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, errors.New("profile: function name out of the string table")
				}
				ss.funcs = append(ss.funcs, strs[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// forFields walks one protobuf message, calling fn with each field's
// number and either its varint value (v) or its bytes (b).
func forFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding:
// one value (b nil) or a packed run (b holds the varints).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Runtime functions whose samples are the Go scheduler handing the CPU
// between goroutines (the coroutine handoff every simulated context
// switch and worker barrier pays), and those that are garbage
// collection. Matched as prefixes of the fully qualified name.
var (
	schedFuncs = []string{
		"runtime.chan", "runtime.select", "runtime.gopark", "runtime.goready",
		"runtime.park_m", "runtime.schedule", "runtime.findRunnable",
		"runtime.mcall", "runtime.ready", "runtime.gosched", "runtime.goschedImpl",
		"runtime.Gosched", "runtime.wakep", "runtime.startm", "runtime.stopm",
		"runtime.handoffp", "runtime.execute", "runtime.newproc", "runtime.goexit0",
		"runtime.runqgrab", "runtime.stealWork", "runtime.notesleep",
		"runtime.notewakeup", "runtime.semacquire", "runtime.semrelease",
		"sync.runtime_", "sync.(*WaitGroup).Wait", "sync.(*Cond).Wait",
	}
	gcFuncs = []string{
		"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
		"runtime.wbBuf", "runtime.bulkBarrier", "runtime.GC", "runtime._GC",
		"runtime.(*gcControllerState)", "runtime.(*scavengerState)",
		"runtime.deductAssistCredit", "runtime.findObject", "runtime.typePointers",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketOf charges one stack to a host bucket. Walking from the leaf,
// the first frame that is garbage collection, scheduler handoff, or a
// shrimp/internal/<pkg> function decides: gc, sched, or that package
// (packages off the hot path fold into other). A stack with no such
// frame is the benchmark's own code when a main-package frame is
// present (other) and runtime background work otherwise (gc).
func bucketOf(funcs []string) string {
	const internal = "shrimp/internal/"
	bench := false
	for _, f := range funcs {
		switch {
		case hasAnyPrefix(f, gcFuncs):
			return "gc"
		case hasAnyPrefix(f, schedFuncs):
			return "sched"
		case strings.HasPrefix(f, internal):
			pkg := f[len(internal):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, b := range hostBuckets {
				if b == pkg {
					return b
				}
			}
			return "other"
		case strings.HasPrefix(f, "main."):
			bench = true
		}
	}
	if bench {
		return "other"
	}
	return "gc"
}
