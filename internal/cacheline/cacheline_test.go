package cacheline_test

import (
	"reflect"
	"testing"

	"repro/internal/cacheline"
	"repro/internal/dram"
	"repro/internal/hmm"
)

// Every padded struct keeps each of its fields at least one line from
// both of its ends, so a field added or moved outside the pads fails
// here instead of silently sharing a line with a neighbouring object.
// reflect reports the same offsets and sizes as unsafe.Offsetof and
// unsafe.Sizeof, and also reaches unexported fields and dram's
// unexported channel type, through Device's channel slice.
func TestPaddedStructsIsolated(t *testing.T) {
	channels, ok := reflect.TypeOf(dram.Device{}).FieldByName("channels")
	if !ok {
		t.Fatal("dram.Device has no channels field")
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(hmm.Devices{}),
		reflect.TypeOf(hmm.Meta{}),
		reflect.TypeOf(hmm.MetaCache{}),
		reflect.TypeOf(hmm.Mover{}),
		reflect.TypeOf(hmm.OSMem{}),
		reflect.TypeOf(hmm.FetchTracker{}),
		channels.Type.Elem(),
	} {
		fields := 0
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Name == "_" {
				continue
			}
			fields++
			if end := f.Offset + f.Type.Size(); f.Offset < cacheline.Size || typ.Size()-end < cacheline.Size {
				t.Errorf("%v.%s spans bytes [%d, %d) of %d: want at least %d bytes to either end",
					typ, f.Name, f.Offset, end, typ.Size(), cacheline.Size)
			}
		}
		if fields == 0 {
			t.Errorf("%v has no fields besides its pads", typ)
		}
	}
}
