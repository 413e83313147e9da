"""deeplint: static analysis for SplitFT's C++ tree. See deeplint.py."""
