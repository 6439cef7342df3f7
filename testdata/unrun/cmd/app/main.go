// Command app is the fixture's one product caller.
package main

import "fixture/internal/lib"

func main() {
	_ = lib.Live()
}
