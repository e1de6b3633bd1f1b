#pragma once
// Kept only because perfbench/src/main.cpp includes it and prints the flag.
#define W11_OBS 1
