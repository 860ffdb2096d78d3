mdrun -ntmpi 20 -ntomp 1 -dlb yes -nstlist 40 -gpu_id 00000000001111111111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 20 -ntomp 1 -dlb no -nstlist 40 -gpu_id 00000000001111111111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 10 -ntomp 2 -dlb yes -nstlist 40 -gpu_id 0000011111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 10 -ntomp 2 -dlb no -nstlist 40 -gpu_id 0000011111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 5 -ntomp 4 -dlb yes -nstlist 40 -gpu_id 00011 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 5 -ntomp 4 -dlb no -nstlist 40 -gpu_id 00011 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 4 -ntomp 5 -dlb yes -nstlist 40 -gpu_id 0011 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 4 -ntomp 5 -dlb no -nstlist 40 -gpu_id 0011 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 2 -ntomp 10 -dlb yes -nstlist 40 -gpu_id 01 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 2 -ntomp 10 -dlb no -nstlist 40 -gpu_id 01 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 40 -ntomp 1 -dlb yes -nstlist 40 -gpu_id 0000000000000000000011111111111111111111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 40 -ntomp 1 -dlb no -nstlist 40 -gpu_id 0000000000000000000011111111111111111111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 20 -ntomp 2 -dlb yes -nstlist 40 -gpu_id 00000000001111111111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 20 -ntomp 2 -dlb no -nstlist 40 -gpu_id 00000000001111111111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 10 -ntomp 4 -dlb yes -nstlist 40 -gpu_id 0000011111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 10 -ntomp 4 -dlb no -nstlist 40 -gpu_id 0000011111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 8 -ntomp 5 -dlb yes -nstlist 40 -gpu_id 00001111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 8 -ntomp 5 -dlb no -nstlist 40 -gpu_id 00001111 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 5 -ntomp 8 -dlb yes -nstlist 40 -gpu_id 00011 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 5 -ntomp 8 -dlb no -nstlist 40 -gpu_id 00011 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 4 -ntomp 10 -dlb yes -nstlist 40 -gpu_id 0011 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 4 -ntomp 10 -dlb no -nstlist 40 -gpu_id 0011 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 2 -ntomp 20 -dlb yes -nstlist 40 -gpu_id 01 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 2 -ntomp 20 -dlb no -nstlist 40 -gpu_id 01 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 4 -ntomp 5 -npme 2 -ntomp_pme 5 -nstlist 40 -gpu_id 01 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 4 -ntomp 4 -npme 2 -ntomp_pme 6 -nstlist 40 -gpu_id 01 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 4 -ntomp 10 -npme 2 -ntomp_pme 10 -nstlist 40 -gpu_id 01 -s in.tpr -nsteps 5000 -resetstep 1000
mdrun -ntmpi 4 -ntomp 9 -npme 2 -ntomp_pme 11 -nstlist 40 -gpu_id 01 -s in.tpr -nsteps 5000 -resetstep 1000
