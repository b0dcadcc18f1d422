package index

// Memoized reports whether a store-backed entry keeps a decoded function
// on the heap: Decode keeps nothing, so its fn stays nil.
func Memoized(e *Entry) bool { return e.src != nil && e.fn != nil }
