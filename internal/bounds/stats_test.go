package bounds

import (
	"reflect"
	"testing"
)

// TestStatFieldsCoverEngineStats pins the counter table to the record: one
// entry per EngineStats field, in declaration order, addressing that field,
// under a distinct name; Add sums every field.
func TestStatFieldsCoverEngineStats(t *testing.T) {
	typ := reflect.TypeOf(EngineStats{})
	if len(StatFields) != typ.NumField() {
		t.Fatalf("StatFields has %d entries for %d EngineStats fields", len(StatFields), typ.NumField())
	}
	seen := make(map[string]bool)
	var a, b EngineStats
	for i, f := range StatFields {
		if sf := typ.Field(i); f.off != sf.Offset || sf.Type.Kind() != reflect.Int64 {
			t.Errorf("entry %d (%s) does not address field %s", i, f.Name, sf.Name)
		}
		if seen[f.Name] {
			t.Errorf("duplicate counter name %q", f.Name)
		}
		seen[f.Name] = true
		reflect.ValueOf(&a).Elem().Field(i).SetInt(int64(i + 1))
		reflect.ValueOf(&b).Elem().Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i, f := range StatFields {
		if got := f.Of(a); got != int64(101*(i+1)) {
			t.Errorf("%s after Add = %d, want %d", f.Name, got, 101*(i+1))
		}
	}
}
