package main

import "strings"

// layers lists the model layers the traced run folds CPU samples
// into, in report order.
var layers = []string{
	"session", "sim", "pcie", "virtio", "vdev", "xdmaip", "fpga", "hostos",
	"netstack", "drivers", "telemetry", "faults", "runtime", "other",
}

// layerOf maps every non-test package of the module under test to its
// layer. A test walks the source tree and fails when a package is
// missing here, so a new package cannot fall silently into "other".
// Packages off the timed path (experiments, perf, the analyzers, the
// invariant hooks) map to "other" on purpose.
var layerOf = map[string]string{
	"fpgavirtio":                                "session",
	"fpgavirtio/internal/sim":                   "sim",
	"fpgavirtio/internal/mem":                   "sim",
	"fpgavirtio/internal/pcie":                  "pcie",
	"fpgavirtio/internal/virtio":                "virtio",
	"fpgavirtio/internal/vdev":                  "vdev",
	"fpgavirtio/internal/xdmaip":                "xdmaip",
	"fpgavirtio/internal/fpga":                  "fpga",
	"fpgavirtio/internal/hostos":                "hostos",
	"fpgavirtio/internal/netstack":              "netstack",
	"fpgavirtio/internal/drivers/virtionet":     "drivers",
	"fpgavirtio/internal/drivers/virtiopci":     "drivers",
	"fpgavirtio/internal/drivers/xdmadrv":       "drivers",
	"fpgavirtio/internal/drivers/virtioblk":     "drivers",
	"fpgavirtio/internal/drivers/virtioconsole": "drivers",
	"fpgavirtio/internal/telemetry":             "telemetry",
	"fpgavirtio/internal/faults":                "faults",
	"fpgavirtio/internal/experiments":           "other",
	"fpgavirtio/internal/perf":                  "other",
	"fpgavirtio/internal/fvassert":              "other",
	"fpgavirtio/internal/analysis":              "other",
	"fpgavirtio/internal/analysis/analysistest": "other",
	"fpgavirtio/internal/analysis/detsafe":      "other",
	"fpgavirtio/internal/analysis/hotalloc":     "other",
	"fpgavirtio/internal/analysis/kickflush":    "other",
	"fpgavirtio/internal/analysis/lockorder":    "other",
	"fpgavirtio/internal/analysis/metricname":   "other",
	"fpgavirtio/internal/analysis/ringorder":    "other",
}

// funcPackage returns the import path of a profiled function name such
// as "fpgavirtio/internal/sim.(*Sim).Run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer returns the layer a frame's package belongs to, or "" for
// a package that is transparent to the fold.
func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	if l, ok := layerOf[pkg]; ok {
		return l
	}
	if pkg == "runtime" && !copyHelper[fn] || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/") {
		return "runtime"
	}
	return ""
}

// copyHelper lists runtime functions that do a caller's work (copying,
// clearing, comparing memory) rather than the runtime's own.
var copyHelper = map[string]bool{
	"runtime.memmove":              true,
	"runtime.memclrNoHeapPointers": true,
	"runtime.memequal":             true,
}

// foldStack returns the layer a sample's self time belongs to: that of
// its leaf frame. Standard-library helpers outside the Go runtime (and
// the runtime's memory copy/clear/compare routines) are transparent,
// so their time goes to the nearest caller in a known layer; a stack
// with none, such as the benchmark's own code, goes to "other".
func foldStack(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
		if funcPackage(fn) == "main" {
			return "other"
		}
	}
	return "other"
}
