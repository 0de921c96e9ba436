// Package hotpathalloc is the golden fixture for the hotpathalloc
// analyzer.
package hotpathalloc

import "fmt"

type space struct {
	nodes   []int32
	scratch []int32
	sc      struct{ buf []byte }
}

//hoyan:hotpath
func hotBad(s *space, n int32) {
	fmt.Println(n)        // want "fmt.Println in //hoyan:hotpath function hotBad allocates"
	m := map[int32]bool{} // want "map literal in //hoyan:hotpath function hotBad allocates"
	_ = m
	var local []int32
	local = append(local, n) // want "append to non-scratch slice \"local\" in //hoyan:hotpath function hotBad allocates"
	_ = local
}

//hoyan:hotpath
func hotEscape(n int32) func() int32 {
	f := func() int32 { return n } // want "func literal in //hoyan:hotpath function hotEscape allocates if it escapes and is called uninlined if it does not"
	return f
}

//hoyan:hotpath
func hotCallback(s *space, n int32) bool {
	// Allocates nothing, and is still a call per element that the
	// compiler does not inline: the shape of a hash probe with an eq
	// callback.
	return anyOf(s.nodes, func(v int32) bool { return v == n }) // want "func literal in //hoyan:hotpath function hotCallback allocates if it escapes and is called uninlined if it does not"
}

func anyOf(xs []int32, f func(int32) bool) bool {
	for _, x := range xs {
		if f(x) {
			return true
		}
	}
	return false
}

//hoyan:hotpath
func hotBox(n int32) interface{} {
	observe(n) // want "concrete value boxed into interface argument in //hoyan:hotpath function hotBox allocates"
	return n   // want "concrete value boxed into interface result in //hoyan:hotpath function hotBox allocates"
}

func observe(v interface{}) {}

//hoyan:hotpath
func hotGood(s *space, n int32) int {
	s.nodes = append(s.nodes, n) // allowed: arena field append, amortized growth
	buf := s.sc.buf[:0]
	buf = append(buf, byte(n)) // allowed: field-backed scratch local
	return len(s.nodes) + len(buf)
}

func coldPath(n int32) {
	fmt.Println(n) // allowed: not annotated
}
