// Package netaddr provides the IPv4 prefix arithmetic the verifier needs:
// parsing, containment, aggregation, and a longest-prefix-match trie used
// both for FIBs and for prefix-list policy matching.
package netaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is an IPv4 CIDR prefix: the high Len bits of Addr are significant
// and the rest are zero. The zero value is 0.0.0.0/0.
type Prefix struct {
	Addr uint32
	Len  uint8
}

// MustParse parses a CIDR string, panicking on error. Intended for tests
// and static tables.
func MustParse(s string) Prefix {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Parse parses "a.b.c.d/len" or a bare address (treated as /32).
func Parse(s string) (Prefix, error) {
	addrStr := s
	length := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		addrStr = s[:i]
		var err error
		length, err = strconv.Atoi(s[i+1:])
		if err != nil || length < 0 || length > 32 {
			return Prefix{}, fmt.Errorf("netaddr: bad prefix length in %q", s)
		}
	}
	parts := strings.Split(addrStr, ".")
	if len(parts) != 4 {
		return Prefix{}, fmt.Errorf("netaddr: bad IPv4 address %q", addrStr)
	}
	var addr uint32
	for _, p := range parts {
		b, err := strconv.Atoi(p)
		if err != nil || b < 0 || b > 255 {
			return Prefix{}, fmt.Errorf("netaddr: bad IPv4 octet %q in %q", p, addrStr)
		}
		addr = addr<<8 | uint32(b)
	}
	return Make(addr, uint8(length)), nil
}

// Make builds a prefix, masking off host bits.
func Make(addr uint32, length uint8) Prefix {
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: addr & Mask(length), Len: length}
}

// Mask returns the netmask for a prefix length.
func Mask(length uint8) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	var buf [len("255.255.255.255/32")]byte
	b := buf[:0]
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(p.Addr>>shift)), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(p.Len), 10)
	return string(b)
}

// Contains reports whether the address a lies inside p.
func (p Prefix) Contains(a uint32) bool {
	return a&Mask(p.Len) == p.Addr
}

// Covers reports whether p contains every address of q (p is a supernet of
// or equal to q).
func (p Prefix) Covers(q Prefix) bool {
	return p.Len <= q.Len && q.Addr&Mask(p.Len) == p.Addr
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Covers(q) || q.Covers(p)
}

// Parent returns the prefix one bit shorter. Parent of /0 is /0.
func (p Prefix) Parent() Prefix {
	if p.Len == 0 {
		return p
	}
	return Make(p.Addr, p.Len-1)
}

// Halves splits p into its two children; only valid for Len < 32.
func (p Prefix) Halves() (lo, hi Prefix) {
	l := p.Len + 1
	lo = Make(p.Addr, l)
	hi = Make(p.Addr|1<<(32-l), l)
	return lo, hi
}

// Bit returns the i-th most significant bit of the address (0-indexed).
func (p Prefix) Bit(i uint8) uint32 {
	return (p.Addr >> (31 - i)) & 1
}

// IsDefault reports whether p is 0.0.0.0/0, the default route — relevant to
// the "route redistribution" VSB (whether a vendor redistributes the
// default route).
func (p Prefix) IsDefault() bool { return p.Addr == 0 && p.Len == 0 }

// CanAggregate reports whether a and b are sibling halves of a common
// parent, and returns that parent.
func CanAggregate(a, b Prefix) (Prefix, bool) {
	if a.Len != b.Len || a.Len == 0 {
		return Prefix{}, false
	}
	pa, pb := a.Parent(), b.Parent()
	if pa == pb && a != b {
		return pa, true
	}
	return Prefix{}, false
}
