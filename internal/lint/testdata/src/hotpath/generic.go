package hotpath

// stack is a generic container: a call to one of its methods resolves to
// the method of the instantiated type (stack[int]), which is a different
// types.Func from the one the declaration defines. The call graph must
// key callees by the declaration (Func.Origin), or everything behind a
// generic receiver drops off the hot path.
type stack[T any] struct{ items []T }

func (s *stack[T]) push(v T) {
	s.items = append(s.items, v) // want "append may grow its backing array"
}

// fill is a hot-path root that allocates only through the generic method.
//
// bwlint:hotpath
func fill(s *stack[int], v int) {
	s.push(v)
}
