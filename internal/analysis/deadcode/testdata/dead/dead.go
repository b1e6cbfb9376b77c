// Package dead is the deadcode fixture: its exported API, main and
// init are roots, and each function below is either reached from them
// or flagged.
package dead

import (
	"fmt"
	"io"
	"sort"
)

func init() { register() }

func register() {}

func main() {}

// Run is public API: the fixture's package path is outside internal/.
func Run() int {
	var s shape = square{}
	var boxed any = &hexagon{}
	write(sink{})
	sort.Sort(byLen{"bb", "a"})
	return apply(double) + s.area() + boxed.(shape).area()
}

// Public is an exported type: its exported methods are API.
type Public struct{}

func (Public) Method() {}

func (Public) method() {} // want "dead.Public).method is unreachable"

// apply takes its callback as a value; double is never called directly.
func apply(f func(int) int) int { return f(2) }

func double(x int) int { return 2 * x }

// Interface dispatch inside the module fans out to the implementations
// some conversion boxes: square into a shape, hexagon into an any that
// is asserted to a shape. Nothing converts a circle.
type shape interface{ area() int }

type square struct{}

func (square) area() int { return 1 }

type hexagon struct{}

func (*hexagon) area() int { return 6 }

type circle struct{}

func (circle) area() int { return 3 } // want "dead.circle).area is unreachable"

// sink reaches io.Writer only through the conversion at write's call:
// fmt calls Write, the module never does. Close is declared by no
// interface sink is converted to.
type sink struct{}

func (sink) Write(p []byte) (int, error) { return len(p), nil }

func (sink) Close() error { return nil } // want "dead.sink).Close is unreachable"

func write(w io.Writer) { fmt.Fprint(w, "x") }

// byLen is handed to sort.Sort, which calls Len, Less and Swap.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// label's String is found by fmt through a type assertion.
type label string

func (l label) String() string { return string(l) }

func unreached() { helper() } // want "dead.unreached is unreachable"

func helper() {} // want "dead.helper is unreachable"

// counter's method is called only from this package's own test.
type counter struct{}

func (counter) testOnly() int { return 1 } // want "dead.counter).testOnly is unreachable"

//fvlint:ignore deadcode kept as the oracle of a test
func oracle() { oracleHelper() }

func oracleHelper() {}
