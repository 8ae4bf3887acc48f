package main

// cpuRelax executes PAUSE, which marks a spin-wait and leaves a
// hyperthread sibling most of the core's execution resources.
func cpuRelax()
