package netaddr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []struct{ in, out string }{
		{"10.0.1.0/24", "10.0.1.0/24"},
		{"10.0.1.7/24", "10.0.1.0/24"}, // host bits masked
		{"0.0.0.0/0", "0.0.0.0/0"},
		{"255.255.255.255/32", "255.255.255.255/32"},
		{"192.168.0.1", "192.168.0.1/32"}, // bare address
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := p.String(); got != c.out {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.out)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "10.0.1/24", "10.0.1.0/33", "10.0.1.0/-1", "10.0.1.256/24", "a.b.c.d/8", "10.0.1.0/x"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != 0 {
		t.Fatal("mask /0")
	}
	if Mask(32) != ^uint32(0) {
		t.Fatal("mask /32")
	}
	if Mask(24) != 0xFFFFFF00 {
		t.Fatal("mask /24")
	}
}

func TestContainsCovers(t *testing.T) {
	p := MustParse("10.0.0.0/8")
	q := MustParse("10.1.0.0/16")
	r := MustParse("11.0.0.0/8")
	if !p.Covers(q) || q.Covers(p) {
		t.Fatal("covers must be directional")
	}
	if !p.Covers(p) {
		t.Fatal("covers is reflexive")
	}
	if p.Covers(r) || !p.Overlaps(q) || p.Overlaps(r) {
		t.Fatal("overlap logic")
	}
	if !p.Contains(MustParse("10.200.3.4").Addr) {
		t.Fatal("contains")
	}
	if p.Contains(MustParse("11.0.0.1").Addr) {
		t.Fatal("contains out of range")
	}
}

func TestParentHalves(t *testing.T) {
	p := MustParse("10.0.1.0/31")
	lo, hi := MustParse("10.0.1.0/32"), MustParse("10.0.1.1/32")
	gotLo, gotHi := p.Halves()
	if gotLo != lo || gotHi != hi {
		t.Fatalf("Halves = %v,%v", gotLo, gotHi)
	}
	if lo.Parent() != p || hi.Parent() != p {
		t.Fatal("parent of halves")
	}
	d := Prefix{}
	if d.Parent() != d {
		t.Fatal("parent of default is default")
	}
}

func TestCanAggregate(t *testing.T) {
	// The §5.3 route-aggregation example: 10.0.1.0/32 + 10.0.1.1/32 →
	// 10.0.1.0/31.
	a, b := MustParse("10.0.1.0/32"), MustParse("10.0.1.1/32")
	agg, ok := CanAggregate(a, b)
	if !ok || agg != MustParse("10.0.1.0/31") {
		t.Fatalf("agg=%v ok=%v", agg, ok)
	}
	if _, ok := CanAggregate(a, a); ok {
		t.Fatal("a prefix does not aggregate with itself")
	}
	if _, ok := CanAggregate(a, MustParse("10.0.1.2/32")); ok {
		t.Fatal("non-siblings must not aggregate")
	}
	if _, ok := CanAggregate(a, MustParse("10.0.1.0/31")); ok {
		t.Fatal("different lengths must not aggregate")
	}
}

func TestIsDefault(t *testing.T) {
	if !MustParse("0.0.0.0/0").IsDefault() {
		t.Fatal("default route")
	}
	if MustParse("0.0.0.0/8").IsDefault() {
		t.Fatal("/8 is not default")
	}
}

// Property: Make always produces a canonical prefix (host bits zero) and
// Parse(String()) round-trips.
func TestPropertyCanonicalRoundTrip(t *testing.T) {
	prop := func(addr uint32, lenSeed uint8) bool {
		p := Make(addr, lenSeed%33)
		if p.Addr&^Mask(p.Len) != 0 {
			return false
		}
		q, err := Parse(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Covers(q) implies every sampled address of q is in p.
func TestPropertyCoversMembership(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Make(rng.Uint32(), uint8(rng.Intn(25)))
		q := Make(p.Addr|rng.Uint32()&^Mask(p.Len), p.Len+uint8(rng.Intn(int(33-p.Len))))
		if !p.Covers(q) {
			return false
		}
		for i := 0; i < 8; i++ {
			a := q.Addr | rng.Uint32()&^Mask(q.Len)
			if !p.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStringMatchesSprintf pins String's bytes to the fmt.Sprintf form it
// replaced, on random prefixes (host bits and all), /0 and /32 included.
func TestStringMatchesSprintf(t *testing.T) {
	want := func(p Prefix) string {
		return fmt.Sprintf("%d.%d.%d.%d/%d",
			byte(p.Addr>>24), byte(p.Addr>>16), byte(p.Addr>>8), byte(p.Addr), p.Len)
	}
	ps := []Prefix{{}, {Addr: ^uint32(0), Len: 32}, {Addr: ^uint32(0)}, {Len: 32}, {Addr: 0x0a000100, Len: 24}}
	rng := rand.New(rand.NewSource(7))
	for range 10000 {
		ps = append(ps, Prefix{Addr: rng.Uint32(), Len: uint8(rng.Intn(33))})
	}
	for _, p := range ps {
		if got := p.String(); got != want(p) {
			t.Fatalf("%#v: String %q, Sprintf %q", p, got, want(p))
		}
	}
}
