package testutil

import (
	"reflect"
	"testing"
)

// Fill sets every exported field reachable from ptr to a nonzero value:
// numbers to 7, strings to "s7", bools to true, and every slice and map to
// one filled element. A round trip of a filled value then fails on any
// field an encoding drops, including fields added after the test was
// written.
func Fill(t *testing.T, ptr any) {
	t.Helper()
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		t.Fatalf("testutil.Fill: want a non-nil pointer, got %T", ptr)
	}
	fill(t, v.Elem())
}

func fill(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7.5)
	case reflect.String:
		v.SetString("s7")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i))
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(t, v.Index(0))
	case reflect.Map:
		key := reflect.New(v.Type().Key()).Elem()
		elem := reflect.New(v.Type().Elem()).Elem()
		fill(t, key)
		fill(t, elem)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(key, elem)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem())
	default:
		t.Fatalf("testutil.Fill: cannot fill a %s", v.Type())
	}
}
