package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// convRunShape pins the shape of the cached cell result next to the cache
// version it is written under. A gob entry of another shape decodes with
// its moved or renamed fields silently zero, so a shape change must come
// with a cacheVersion bump.
var convRunShape = struct{ version, digest string }{"fedca-cells-v10", "7feccb30bc2784d32504452de8338d1fbca2bd524154bb49fedf6a68be64b63a"}

func TestCacheVersionPinsConvRunShape(t *testing.T) {
	got := typeDigest(reflect.TypeOf(convRun{}))
	if got == convRunShape.digest {
		return
	}
	if cacheVersion == convRunShape.version {
		t.Fatalf("convRun's shape changed (digest %s, pinned %s) under cacheVersion %s: bump cacheVersion", got, convRunShape.digest, cacheVersion)
	}
	t.Fatalf("convRun's shape is new under cacheVersion %s: pin convRunShape to {%q, %q}", cacheVersion, cacheVersion, got)
}

// typeDigest hashes t's type tree: every struct field's name and type,
// recursively through pointers, slices, arrays and maps.
func typeDigest(t reflect.Type) string {
	var b strings.Builder
	writeType(&b, t, map[reflect.Type]bool{})
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func writeType(b *strings.Builder, t reflect.Type, seen map[reflect.Type]bool) {
	b.WriteString(t.String())
	if seen[t] {
		return
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		b.WriteString("(")
		writeType(b, t.Elem(), seen)
		b.WriteString(")")
	case reflect.Map:
		b.WriteString("(")
		writeType(b, t.Key(), seen)
		b.WriteString(",")
		writeType(b, t.Elem(), seen)
		b.WriteString(")")
	case reflect.Struct:
		b.WriteString("{")
		for i := range t.NumField() {
			f := t.Field(i)
			b.WriteString(f.Name + " ")
			writeType(b, f.Type, seen)
			b.WriteString(";")
		}
		b.WriteString("}")
	}
}
