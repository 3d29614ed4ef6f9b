// Package layouttest is the test support behind the layout_test.go files:
// it checks that a struct keeps fields with different writers at least one
// cacheline.Size apart, and that the objects of a live runtime really do
// land on separate units. It reads offsets through reflect, so it sees
// unexported fields of any package.
package layouttest

import (
	"fmt"
	"reflect"
	"testing"

	"fibril/internal/cacheline"
)

// Extent is a named half-open range of addresses (or of offsets).
type Extent struct {
	Name       string
	Start, End uintptr
}

// Groups checks the type of v — a struct whose values are allocated one by
// one, with arbitrary heap neighbours — against its intended layout: every
// field other than blank padding is named in exactly one group (so a new
// field has to be given a writer before the test passes), any two groups
// are at least cacheline.Size apart, and every group is that far from both
// ends of the struct. An embedded struct is named as one field.
func Groups(t testing.TB, v any, groups ...[]string) {
	t.Helper()
	typ := reflect.TypeOf(v)
	ext := make([]Extent, len(groups))
	owner := map[string]int{}
	for g, names := range groups {
		ext[g] = Extent{Name: fmt.Sprintf("%v group %d (%s…)", typ, g, names[0]), Start: typ.Size()}
		for _, n := range names {
			if _, dup := owner[n]; dup {
				t.Errorf("%v: field %s is in two groups", typ, n)
			}
			owner[n] = g
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			continue
		}
		g, ok := owner[f.Name]
		if !ok {
			t.Errorf("%v: field %s is in no group: decide who writes it", typ, f.Name)
			continue
		}
		delete(owner, f.Name)
		ext[g].Start = min(ext[g].Start, f.Offset)
		ext[g].End = max(ext[g].End, f.Offset+f.Type.Size())
	}
	for n := range owner {
		t.Errorf("%v has no field %s", typ, n)
	}
	for a, ea := range ext {
		if ea.Start < cacheline.Size || typ.Size()-ea.End < cacheline.Size {
			t.Errorf("%s spans [%d,%d) of %d bytes: less than %d from an end",
				ea.Name, ea.Start, ea.End, typ.Size(), cacheline.Size)
		}
		for _, eb := range ext[a+1:] {
			// Overlapping extents (a group split around another) fail too.
			if ea.End+cacheline.Size > eb.Start && eb.End+cacheline.Size > ea.Start {
				t.Errorf("%s [%d,%d) and %s [%d,%d) are less than %d bytes apart",
					ea.Name, ea.Start, ea.End, eb.Name, eb.Start, eb.End, cacheline.Size)
			}
		}
	}
}

// Element checks that the type of v, the element of a per-slot slice, is a
// whole number of cacheline units.
func Element(t testing.TB, v any) {
	t.Helper()
	if typ := reflect.TypeOf(v); typ.Size()%cacheline.Size != 0 {
		t.Errorf("%v is %d bytes, not a multiple of %d", typ, typ.Size(), cacheline.Size)
	}
}

// Of returns the address range the named fields of the struct p points to
// cover; with no names, the range of all its fields but blank padding.
func Of(name string, p any, fields ...string) Extent {
	v := reflect.ValueOf(p).Elem()
	typ, base := v.Type(), v.UnsafeAddr()
	if len(fields) == 0 {
		for i := 0; i < typ.NumField(); i++ {
			if n := typ.Field(i).Name; n != "_" {
				fields = append(fields, n)
			}
		}
	}
	e := Extent{Name: name, Start: ^uintptr(0)}
	for _, n := range fields {
		f, ok := typ.FieldByName(n)
		if !ok {
			panic(fmt.Sprintf("layouttest: %v has no field %s", typ, n))
		}
		e.Start = min(e.Start, base+f.Offset)
		e.End = max(e.End, base+f.Offset+f.Type.Size())
	}
	return e
}

// Disjoint checks real addresses: no two of the extents may touch the same
// cacheline.Size-aligned unit of memory.
func Disjoint(t testing.TB, xs []Extent) {
	t.Helper()
	for i, a := range xs {
		for _, b := range xs[i+1:] {
			if a.Start/cacheline.Size <= (b.End-1)/cacheline.Size &&
				b.Start/cacheline.Size <= (a.End-1)/cacheline.Size {
				t.Errorf("%s [%#x,%#x) and %s [%#x,%#x) share a %d-byte unit",
					a.Name, a.Start, a.End, b.Name, b.Start, b.End, cacheline.Size)
			}
		}
	}
}
