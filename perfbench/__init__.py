"""End-to-end benchmark of the WebRobot reproduction (see README.md)."""
